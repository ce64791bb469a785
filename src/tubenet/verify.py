"""Numerical certificates for a finished design.

These checks are what `cmd_check` runs: the algebraic identities of the
solved invariant-set LP, strict inclusion of the tube sections inside the
constraints, containment of the tightened sets, and, as an independent
sampled oracle, invariance under sampled states/disturbances and
homogeneity of the invariance law the controller serves (its explicit
section law, or the LP when the section is unavailable).
`vertex_invariance_report` checks the explicit law exactly, at the vertices
of the tube section.
The plug-in transaction commits on the exact pair (`structural_report`,
`inclusion_report`).
"""

from __future__ import annotations

import numpy as np

from .controller import TubeController
from .geometry import box_vertices, member_aggregate
from .model import Subsystem
from .rci import RciDesign

__all__ = [
    "rci_certificate",
    "inclusion_report",
    "tube_containment_report",
    "homogeneity_report",
    "structural_report",
    "vertex_invariance_report",
    "run_all_checks",
]


def rci_certificate(ctrl: TubeController, n_samples: int = 1000, seed: int = 0,
                    tol: float = 1e-6) -> dict:
    """Sampled invariance check of the served law: states from the invariant
    set, disturbances from the coupling set, successors must stay members
    (within tol) by the independent membership LP."""
    rng = np.random.default_rng(seed)
    sub, design = ctrl.sub, ctrl.rci
    Z = design.z_set()
    failures = 0
    input_violations = 0
    for _ in range(n_samples):
        x = Z.sample(rng)
        w = design.w_set.sample(rng)
        u, _, _ = ctrl.compiled.law(x)
        if not sub.U.contains(u, tol=1e-7):
            input_violations += 1
        succ = sub.A @ x + sub.B @ u + w
        if not member_aggregate(Z, succ, tol=tol).feasible:
            failures += 1
    return {
        "name": "rci_certificate",
        "samples": n_samples,
        "failures": failures,
        "input_violations": input_violations,
        "passed": failures == 0 and input_violations == 0,
    }


def inclusion_report(sub: Subsystem, design: RciDesign) -> dict:
    """Strict inclusion of the invariant set in X and of its inputs in U."""
    sx, su = design.inclusion_slacks(sub.X, sub.U)
    return {
        "name": "inclusions",
        "min_state_slack": float(sx.min()),
        "min_input_slack": float(su.min()),
        "passed": bool(sx.min() > 0 and su.min() > 0),
    }


def tube_containment_report(ctrl: TubeController) -> dict:
    """Per-facet check that the tightened state set plus the tube section
    stays inside the original constraints (and same on the input side)."""
    rci = ctrl.rci
    sub = ctrl.sub
    Z = rci.z_set()
    Uz = rci.u_set()
    slack_x = min(
        float(sub.X.d[r] - ctrl.Xhat.support(sub.X.C[r]) - Z.support(sub.X.C[r]))
        for r in range(sub.X.n_rows))
    slack_u = min(
        float(sub.U.d[r] - ctrl.V.support(sub.U.C[r]) - Uz.support(sub.U.C[r]))
        for r in range(sub.U.n_rows))
    return {
        "name": "tube_containment",
        "min_state_slack": slack_x,
        "min_input_slack": slack_u,
        "passed": bool(slack_x >= -1e-8 and slack_u >= -1e-8),
    }


def homogeneity_report(ctrl: TubeController, n_samples: int = 100, seed: int = 0,
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


def structural_report(design: RciDesign, tol: float = 1e-9) -> dict:
    """Algebraic identities of the solved parametrization: the one-step
    vertex chain, the fold-back of the last block, the origin pins, and the
    seed block covering the coupling set.

    Together they prove invariance exactly (Rakovic & Baric 2010): with
    Z = sigma (Z_0 (+) ... (+) Z_{k-1}), the chain maps Z into
    sigma (Z_1 (+) ... (+) Z_k), the fold-back puts Z_k in alpha conv(Z_0),
    W lies in conv(Z_0), and sigma alpha + 1 = sigma. Input admissibility
    is the separate `inclusion_report`.
    """
    worst_chain = 0.0
    blocks = design.z_blocks + [design.z_terminal]
    for s in range(design.k):
        pred = blocks[s]
        succ = blocks[s + 1]
        resid = succ - pred @ design.A.T - design.u_blocks[s] @ design.B.T
        worst_chain = max(worst_chain, float(np.abs(resid).max()))
    fold = design.z_terminal - design.rho @ design.z_blocks[0]
    worst_fold = float(np.abs(fold).max())
    rho_ok = bool(np.min(design.rho) >= -tol
                  and np.max(design.rho.sum(axis=1)) <= design.alpha + tol)
    pins = max(float(np.abs(b[0]).max()) for b in design.z_blocks + design.u_blocks)
    # the seed block is a box's corners plus the origin, so its hull is that
    # box, and W lies in it when W's interval hull does
    seed = design.z_blocks[0]
    lo, hi = seed[1:].min(axis=0), seed[1:].max(axis=0)
    corners = box_vertices(lo, hi)
    seed_is_box = (seed.shape[0] == corners.shape[0] + 1
                   and float(np.abs(seed[1:] - corners).max()) <= tol)
    w_lo, w_hi = design.w_set.bounds()
    cover = float(min(np.min(w_lo - lo), np.min(hi - w_hi)))
    return {
        "name": "structure",
        "chain_residual": worst_chain,
        "fold_residual": worst_fold,
        "origin_pins": pins,
        "cover_margin": cover,
        "alpha": design.alpha,
        "passed": bool(worst_chain <= tol and worst_fold <= tol and rho_ok
                       and pins <= tol and seed_is_box and cover >= -tol
                       and 0.0 <= design.alpha < 1.0),
    }


def vertex_invariance_report(ctrl: TubeController) -> dict:
    """Exact invariance of the explicit law: the largest gauge of
    A p + B u(p) + w over every hull vertex p of the tube section (and
    p = 0) and every corner w of the coupling set's interval hull. The law
    is linear on each boundary cone, the gauge is convex and W lies in its
    box, so this maximum bounds the successor gauge over Z x W; it must
    stay below 1."""
    section = ctrl.compiled.section
    if section is None:
        return {"name": "vertex_invariance", "passed": True,
                "skipped": "no explicit tube section; the LP law serves"}
    sub = ctrl.sub
    inputs = np.array([section.law(p)[0] for p in section.vertices])  # the served law
    succ = np.vstack([section.vertices @ sub.A.T + inputs @ sub.B.T, np.zeros((1, sub.n))])
    corners = box_vertices(*ctrl.rci.w_set.bounds())
    # the gauge is a max over facet rows, so the max over (p, w) pairs splits
    worst = float(np.max((succ @ section.H.T).max(axis=0) + (corners @ section.H.T).max(axis=0)))
    return {
        "name": "vertex_invariance",
        "max_gauge": worst,
        **section.sizes,
        "passed": bool(worst < 1.0),
    }


def run_all_checks(ctrl: TubeController, n_samples: int = 1000, seed: int = 0) -> list[dict]:
    reports = [
        structural_report(ctrl.rci),
        inclusion_report(ctrl.sub, ctrl.rci),
        tube_containment_report(ctrl),
        vertex_invariance_report(ctrl),
    ]
    if n_samples > 0:
        reports.append(rci_certificate(ctrl, n_samples=n_samples, seed=seed))
        reports.append(homogeneity_report(ctrl, n_samples=max(10, n_samples // 10), seed=seed))
    return reports
