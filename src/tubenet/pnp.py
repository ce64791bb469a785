"""Topology lifecycle: plugging subsystems in and out with scoped redesign.

Both operations are transactions over immutable inputs: they work on copies
and either return a committed (network, controllers) pair or a rejection
that leaves the caller's objects untouched. Plugging in designs the new
subsystem from predecessor data only, then redesigns exactly its successors;
unplugging never requires redesign unless retained dynamics change or the
caller opts into a performance retune.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def _redesign(net: Network, i: str, mpc_cfg: MpcConfig, rci_cfg: RciConfig | None):
    return design_controller(net.subsystems[i], disturbance_set(net, i),
                             rci_cfg, mpc_cfg)


def plug_in(net: Network, controllers: dict, new_sub: Subsystem, new_couplings,
            mpc_cfg: MpcConfig, rci_cfg: RciConfig | None = None) -> PnpTransaction:
    """Add a subsystem: design its controller from predecessor data, then
    redesign exactly the successors whose disturbance grew. Any design
    failure rejects the whole operation; controllers of unaffected
    subsystems are reused as is."""
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

    successors = candidate.successors(new_id)
    tx.redesign_set = [new_id] + successors

    new_controllers = dict(controllers)
    for i in tx.redesign_set:
        cfg = mpc_cfg if i == new_id else controllers[i].cfg
        result = _redesign(candidate, i, cfg, rci_cfg)
        if isinstance(result, DesignFailure):
            tx.outcomes[i] = f"failed: {result.reason}"
            tx.reason = f"design failed for subsystem {i}"
            tx.status = "rejected"
            return tx
        tx.outcomes[i] = "designed"
        new_controllers[i] = result

    if not _commit_gate(tx, candidate, new_controllers):
        return tx
    tx.status = "committed"
    tx.network = candidate
    tx.controllers = new_controllers
    return tx


def _commit_gate(tx: PnpTransaction, candidate: Network, controllers: dict) -> bool:
    """Exact invariance certificate on every redesigned controller: the
    identities of the solved invariant-set LP plus the strict inclusions."""
    for i in tx.redesign_set:
        rci = controllers[i].rci
        if not (structural_report(rci)["passed"]
                and inclusion_report(candidate.subsystems[i], rci)["passed"]):
            tx.outcomes[i] = "failed: invariance certificate"
            tx.reason = f"invariance certificate failed for subsystem {i}"
            tx.status = "rejected"
            return False
        tx.outcomes[i] = "designed+certified"
    return True


def unplug(net: Network, controllers: dict, target: str, policy: str = "none",
           dynamics_overrides: dict | None = None,
           rci_cfg: RciConfig | None = None) -> PnpTransaction:
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

    successors = net.successors(target)
    candidate = net.copy()
    del candidate.subsystems[target]
    candidate.couplings = [c for c in candidate.couplings
                           if c.src != target and c.dst != target]

    redesign = set(overrides)
    if policy == "performance":
        redesign.update(successors)
    tx.redesign_set = sorted(redesign, key=lambda s: (len(s), s))

    new_controllers = {i: c for i, c in controllers.items() if i != target}
    for i in overrides:
        old = candidate.subsystems[i]
        try:
            candidate.subsystems[i] = Subsystem(
                i, overrides[i], old.B, old.X, old.U, x_vertices=old.x_vertices,
                L=old.L, setpoint_state_gain=old.setpoint_state_gain,
                setpoint_input_gain=old.setpoint_input_gain)
        except ModelError as e:
            tx.reason = f"invalid dynamics override for subsystem {i}: {e}"
            return tx
    for i in tx.redesign_set:
        result = _redesign(candidate, i, controllers[i].cfg, rci_cfg)
        if isinstance(result, DesignFailure):
            tx.outcomes[i] = f"failed: {result.reason}"
            tx.reason = f"redesign failed for subsystem {i}"
            tx.status = "rejected"
            return tx
        tx.outcomes[i] = "designed"
        new_controllers[i] = result

    if not _commit_gate(tx, candidate, new_controllers):
        return tx
    tx.status = "committed"
    tx.network = candidate
    tx.controllers = new_controllers
    return tx
