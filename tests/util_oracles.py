"""Oracles of the invariance laws, shared by the test modules.

The sampled oracle calls only the law a controller serves
(`ctrl.compiled.law`) and the design's vertex blocks, never the library's
certificates. The one-input successor law is kept here uncompiled, as the
reference its compiled form (`section.SuccessorLaw`) must equal bit for bit.
"""

import numpy as np

from tubenet.section import TIE_TOL


def homogeneity_report(ctrl, n_samples: int = 100, seed: int = 0,
                       rhos=(0.0, 0.3, 1.0, 2.0), tol: float = 1e-7) -> dict:
    """Value-level homogeneity of the served invariance law: the optimal
    occupancy scales linearly and the scaled coefficients stay feasible and
    optimal for the scaled state (optimizer uniqueness is not assumed)."""
    rng = np.random.default_rng(seed)
    design, law = ctrl.rci, ctrl.compiled.law
    Z = design.z_set()
    zmat = design.sigma * np.hstack([blk.T for blk in design.z_blocks])
    worst = 0.0
    u0, mu0, _ = law(np.zeros(design.A.shape[0]))
    zero_exact = mu0 == 0.0 and not np.any(u0)
    for _ in range(n_samples):
        z = Z.sample(rng)
        _, mu, beta = law(z)
        for rho in rhos:
            _, mu_r, _ = law(rho * z)
            # the rho-scaled optimizer stays feasible for the scaled state
            # and achieves the scaled optimum
            link_residual = float(np.abs(zmat @ (rho * beta) - rho * z).max(initial=0.0))
            worst = max(worst, link_residual, abs(rho * mu - mu_r))
    return {
        "name": "homogeneity",
        "samples": n_samples,
        "max_deviation": worst,
        "zero_maps_to_zero": zero_exact,
        "passed": bool(worst <= tol and zero_exact),
    }


# ------------------------------------- the one-input successor law, uncompiled

def successor_law(sec, c, U, v):
    """Reference predecessor-aware law for one input, with every mask and
    slice rebuilt per call: the u in U - v minimizing the gauge of the
    successor c + B u (ties broken to the least |u|), with (mu, beta) of
    that successor; None when U - v or the band of minimizers is empty."""
    a, b = sec.H @ c, sec.HB[:, 0]
    g = float(np.max(sec._proj @ c, initial=0.0))
    u = least_magnitude(a, b, g, U.C[:, 0], U.d - U.C @ v)
    if u is None:
        return None
    mu, beta, _ = sec.decompose(c + sec.B @ u, a + b * u)
    return u, mu, beta


def least_magnitude(a, b, g, cu, rhs):
    """The minimizer of least |u| over {u : cu u <= rhs} of max_i a_i + b_i u,
    given g, its minimum over all u; None when the interval or the level
    band is empty."""
    lo = float(np.max(rhs[cu < 0] / cu[cu < 0], initial=-np.inf))
    hi = float(np.min(rhs[cu > 0] / cu[cu > 0], initial=np.inf))
    if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
        return None
    u1, u2 = level_band(a, b, g)
    if u2 < lo or u1 > hi:  # the minimum over [lo, hi] is at the bound next to the band
        u1, u2 = level_band(a, b, float(np.max(a + b * (lo if u2 < lo else hi))))
    u1, u2 = max(u1, lo), min(u2, hi)
    return np.array([min(max(0.0, u1), u2)]) if u1 <= u2 else None


def level_band(a, b, g):
    """{u : max_i a_i + b_i u <= g}, within the section's tie tolerance, as
    (u1, u2)."""
    level = g + TIE_TOL * (1.0 + abs(g))
    neg, pos = b < 0, b > 0
    return (float(np.max((level - a[neg]) / b[neg], initial=-np.inf)),
            float(np.min((level - a[pos]) / b[pos], initial=np.inf)))
