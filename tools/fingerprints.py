"""Closed-loop fingerprints of seeded benchmark episodes, to show that a
change leaves the online path bit for bit as it was.

    python3 tools/fingerprints.py CHECKOUT > after.txt

Imports tubenet and the benchmark's workloads from CHECKOUT (a source
checkout, e.g. the parent exported with `git archive`), designs each online
workload once per seed in SEEDS, as the benchmark does, and prints one
line for each of its first EPISODES episodes: workload, seed, episode and
`SimTrace.fingerprint()`. Episodes of one seed share their controllers, as
in the benchmark. Two checkouts agree when `diff` finds no difference
between their outputs.
"""

import argparse
import os
import sys
import tempfile

SEEDS, EPISODES = (1, 2, 3), 12


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
