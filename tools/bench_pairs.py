"""Alternating before/after pairs of `bench/run.py`, appended to a trajectory.

    python3 tools/bench_pairs.py --workload online-trucks --parent HEAD --pairs 10 \
        --seconds 5 --label "what the change does"

Exports the parent revision with `git archive` into a temporary directory,
then runs `bench/run.py` in pairs: once in the parent checkout and once in
the working tree, with the order alternating from pair to pair and seed
k + 1 in pair k. At least MIN_PAIRS pairs are run.
Each run's end-to-end metrics come from the last line `bench/run.py`
prints. The pairs, each side's median and quartiles, and per metric the
number of pairs the working tree won are appended as one entry to
BENCH_<workload>.json at the root of the working tree. Exits 1 when a run
fails or reports a failed operation; nothing is written then.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PAIRS = 10  # fewer cannot tell a 9-of-10 win from noise


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: str):
    """The tree of rev, unpacked into dest."""
    archive = os.path.join(dest, "tree.tar")
    with open(archive, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=fh)
    with tarfile.open(archive) as tar:
        tar.extractall(os.path.join(dest, "tree"), filter="data")
    os.remove(archive)
    return os.path.join(dest, "tree")


def bench(checkout: str, workload: str, seed: int, seconds: int) -> dict:
    """End-to-end metrics {name: value} of one benchmark run in checkout."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"bench/run.py in {checkout} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"bench/run.py in {checkout}: {result['failed']} failed operations")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def entry(pairs: list[dict], better: dict) -> dict:
    """Medians, quartiles and wins per metric; ties count for neither side."""
    out = {}
    for name in pairs[0]["parent"]:
        before = [p["parent"][name] for p in pairs]
        after = [p["change"][name] for p in pairs]
        sign = 1.0 if better.get(name, "lower") == "higher" else -1.0
        out[name] = {"parent": summary(before), "change": summary(after),
                     "change_wins": sum(sign * (a - b) > 0 for a, b in zip(after, before)),
                     "pairs": len(pairs)}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--parent", default="HEAD",
                   help="revision to compare against (HEAD: the uncommitted changes)")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--seconds", type=int, default=5)
    p.add_argument("--label", required=True, help="what the change does")
    args = p.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        p.error(f"--pairs must be at least {MIN_PAIRS}")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    with tempfile.TemporaryDirectory() as tmp:
        parent = export(args.parent, tmp)
        pairs = []
        try:
            for k in range(args.pairs):
                seed = k + 1
                sides = [("parent", parent), ("change", ROOT)]
                if k % 2:
                    sides.reverse()
                pair = {"seed": seed, "first": sides[0][0]}
                for side, checkout in sides:
                    pair[side] = bench(checkout, args.workload, seed, args.seconds)
                pairs.append(pair)
                print(f"pair {k + 1}/{args.pairs} seed {seed}: "
                      + ", ".join(f"{n} {pair['parent'][n]:.4g} -> {pair['change'][n]:.4g}"
                                  for n in pair["parent"]), flush=True)
        except RuntimeError as e:
            print(f"error: {e}", file=sys.stderr)
            return 1

    path = os.path.join(ROOT, f"BENCH_{args.workload}.json")
    doc = {"workload": args.workload, "entries": []}
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    doc["entries"].append({
        "label": args.label,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "parent": git("rev-parse", "--short", args.parent),
        "change": git("rev-parse", "--short", "HEAD") + ("+working-tree" if dirty else ""),
        "seconds": args.seconds,
        "cores": os.cpu_count(),
        "metrics": entry(pairs, better),
        "pairs": pairs,
    })
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
