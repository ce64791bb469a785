"""Fingerprints of seeded benchmark episodes and of designs with their
certificates, to show that a change leaves the online path and the design
bit for bit as they were.

    python3 tools/fingerprints.py CHECKOUT > after.txt

Imports tubenet and the benchmark's workloads from CHECKOUT (a source
checkout, e.g. the parent exported with `git archive`), designs each online
workload once per seed in SEEDS, as the benchmark does, and prints one
line for each of its first EPISODES episodes: workload, seed, episode and
`SimTrace.fingerprint()`. Episodes of one seed share their controllers, as
in the benchmark. Then it designs trucks, power-4 and mass 4x4 for each
seed in SEEDS (trucks and power-4 take no seed) and prints one line per
controller: scenario, seed, subsystem, and the sha256 of its bundle entry
(`cli._design_to_dict`) and of its `verify.run_all_checks` reports. Two
checkouts agree when `diff` finds no difference between their outputs.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

SEEDS, EPISODES = (1, 2, 3), 12


def digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=float).encode()).hexdigest()


def design_lines():
    """One line per designed controller of trucks, power-4 and mass 4x4."""
    from tubenet import cli, scenarios, verify

    docs = [("trucks", "-", scenarios.truck_scenario()),
            ("power-4", "-", scenarios.power_scenario())]
    docs += [("mass-4x4", seed, scenarios.mass_scenario(4, 4, seed=seed)) for seed in SEEDS]
    for name, seed, doc in docs:
        controllers, _, failures = cli.design_scenario(cli.scenario_from_dict(doc))
        for i in sorted(failures):
            yield f"design {name} {seed} {i} failed: {failures[i].reason}"
        for i, ctrl in sorted(controllers.items()):
            yield (f"design {name} {seed} {i} {digest(cli._design_to_dict(ctrl))} "
                   f"{digest(verify.run_all_checks(ctrl))}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout")
    args = p.parse_args(argv)
    root = os.path.abspath(args.checkout)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    from tubenet import sim
    from workloads import OnlineGrid, OnlineTrucks

    with tempfile.TemporaryDirectory() as scratch:
        for cls in (OnlineTrucks, OnlineGrid):
            for seed in SEEDS:
                workload = cls(seed, scratch)
                failures = workload.setup()
                if failures:
                    print(f"error: {cls.name} seed {seed}: {failures[0]}", file=sys.stderr)
                    return 1
                for k in range(EPISODES):
                    trace = sim.run(workload.scenario.network, workload.controllers,
                                    workload.sim_config(k))
                    print(cls.name, seed, k, trace.fingerprint())
    for line in design_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
