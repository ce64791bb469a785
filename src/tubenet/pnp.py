"""Topology lifecycle: plugging subsystems in and out with scoped redesign.

Both operations are transactions over immutable inputs: they work on copies
and either return a committed (network, controllers) pair or a rejection
that leaves the caller's objects untouched. Plugging in designs the new
subsystem from predecessor data only, then redesigns exactly its successors;
unplugging never requires redesign unless retained dynamics change or the
caller opts into a performance retune. Every redesign of a retained
subsystem runs with the settings its controller was designed with.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .controller import MpcConfig, design_controller
from .model import ModelError, Network, Subsystem, disturbance_set
from .rci import DesignFailure, RciConfig
from .verify import inclusion_report, structural_report

__all__ = ["PnpTransaction", "plug_in", "unplug"]


@dataclass
class PnpTransaction:
    """Outcome of one plug/unplug operation.

    On commit, `network` and `controllers` hold the new configuration; on
    rejection both are None and the inputs are guaranteed unmodified.
    """

    operation: str
    target: str
    redesign_set: list[str] = field(default_factory=list)
    outcomes: dict = field(default_factory=dict)
    status: str = "rejected"
    reason: str = ""
    network: Network | None = None
    controllers: dict | None = None

    @property
    def committed(self) -> bool:
        return self.status == "committed"


def plug_in(net: Network, controllers: dict, new_sub: Subsystem, new_couplings,
            mpc_cfg: MpcConfig, rci_cfg: RciConfig | None = None) -> PnpTransaction:
    """Add a subsystem: design its controller from predecessor data with
    (mpc_cfg, rci_cfg), then redesign exactly the successors whose disturbance
    grew. Any design failure rejects the whole operation; controllers of
    unaffected subsystems are reused as is."""
    new_id = str(new_sub.id)
    tx = PnpTransaction("plug", new_id)
    if new_id in net.subsystems:
        tx.reason = f"subsystem id {new_id} already exists"
        return tx

    candidate = net.copy()
    try:
        candidate.subsystems[new_id] = new_sub
        for c in new_couplings:
            if c.src != new_id and c.dst != new_id:
                raise ModelError(
                    f"coupling {c.src}->{c.dst} does not involve the new subsystem")
            candidate._check_coupling(c)
            candidate.couplings.append(c)
    except ModelError as e:
        tx.reason = str(e)
        return tx

    tx.redesign_set = [new_id] + candidate.successors(new_id)
    return _redesign_and_commit(tx, candidate, dict(controllers), "design",
                                new=(mpc_cfg, rci_cfg))


def _redesign_and_commit(tx: PnpTransaction, candidate: Network, controllers: dict,
                         verb: str, new: tuple | None = None) -> PnpTransaction:
    """Redesign tx.redesign_set on the candidate network into controllers,
    which holds the reused ones: each retained subsystem with the settings
    its controller was designed with, a plugged one with new = (mpc_cfg,
    rci_cfg). Commit only if every new design passes the exact invariance
    certificate: the identities of the solved LP plus the strict inclusions."""
    for i in tx.redesign_set:
        cfg, rci_cfg = new if i == tx.target else (controllers[i].cfg, controllers[i].rci_cfg)
        result = design_controller(candidate.subsystems[i], disturbance_set(candidate, i),
                                   rci_cfg, cfg)
        if isinstance(result, DesignFailure):
            tx.outcomes[i] = f"failed: {result.reason}"
            tx.reason = f"{verb} failed for subsystem {i}"
            return tx
        tx.outcomes[i] = "designed"
        controllers[i] = result
    for i in tx.redesign_set:
        rci = controllers[i].rci
        if not (structural_report(rci)["passed"]
                and inclusion_report(candidate.subsystems[i], rci)["passed"]):
            tx.outcomes[i] = "failed: invariance certificate"
            tx.reason = f"invariance certificate failed for subsystem {i}"
            return tx
        tx.outcomes[i] = "designed+certified"
    tx.status = "committed"
    tx.network = candidate
    tx.controllers = controllers
    return tx


def unplug(net: Network, controllers: dict, target: str, policy: str = "none",
           dynamics_overrides: dict | None = None) -> PnpTransaction:
    """Remove a subsystem. Retained controllers stay valid because every
    disturbance set shrank, so the default policy redesigns nothing; the
    "performance" policy retunes the successors anyway. Subsystems whose
    local dynamics change with the topology (A override supplied) are
    force-redesigned regardless of policy."""
    target = str(target)
    tx = PnpTransaction("unplug", target)
    if target not in net.subsystems:
        tx.reason = f"unknown subsystem id {target}"
        return tx
    if policy not in ("none", "performance"):
        tx.reason = f"unknown policy {policy!r}"
        return tx
    overrides = {str(k): np.atleast_2d(np.asarray(v, dtype=float))
                 for k, v in (dynamics_overrides or {}).items()}
    if target in overrides:
        tx.reason = "dynamics override for the removed subsystem is meaningless"
        return tx
    unknown = [k for k in overrides if k not in net.subsystems]
    if unknown:
        tx.reason = f"dynamics overrides for unknown subsystems {unknown}"
        return tx

    candidate = net.copy()
    del candidate.subsystems[target]
    candidate.couplings = [c for c in candidate.couplings
                           if c.src != target and c.dst != target]
    redesign = set(overrides)
    if policy == "performance":
        redesign.update(net.successors(target))
    tx.redesign_set = sorted(redesign, key=lambda s: (len(s), s))
    for i, A in overrides.items():
        try:
            candidate.subsystems[i] = replace(candidate.subsystems[i], A=A)
        except ModelError as e:
            tx.reason = f"invalid dynamics override for subsystem {i}: {e}"
            return tx
    return _redesign_and_commit(
        tx, candidate, {i: c for i, c in controllers.items() if i != target}, "redesign")
