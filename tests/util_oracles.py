"""Sampled oracles of the invariance law, shared by the test modules.

They call only the law a controller serves (`ctrl.compiled.law`) and the
design's vertex blocks, never the library's certificates.
"""

import numpy as np


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
