"""tubenet benchmark: design, online and plug-and-play workloads.

    python3 bench/run.py --workload online-trucks --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

Runs from the root of a source checkout and imports tubenet from its `src/`.
Prints every metric by name with its unit, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. The full result, with
the environment block, goes to .bench_out/, and so do the spans of a traced
run. Exits 1 when a correctness check fails, 2 when it cannot run.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402 - the clock starts before any import
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

#: set-ups per run: at least SETUP_REPS and SETUP_MIN_S seconds of them, at
#: most SETUP_MAX_REPS; set-up and starting-network design times are medians
SETUP_REPS = 2
SETUP_MIN_S = 6.0
SETUP_MAX_REPS = 15
#: a run stops after seconds * OVERRUN even when it lacks samples
OVERRUN = 4


def import_program():
    """Import tubenet from this checkout's sources, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "tubenet", "__init__.py")):
        print(f"error: no tubenet sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import tubenet

    if os.path.dirname(os.path.dirname(os.path.abspath(tubenet.__file__))) != SRC:
        print(f"error: tubenet was imported from {tubenet.__file__}, not from {SRC}",
              file=sys.stderr)
        sys.exit(2)


def run_op(workload, k):
    """Operation k; one that raises counts as a failed operation."""
    from workloads import OpResult

    try:
        return workload.op(k)
    except Exception as e:  # the run goes on and reports the failure
        return OpResult(attempted=1, failures=[f"operation {k} raised {type(e).__name__}: {e}"])


def timed_ops(workload, seconds: float):
    """Run operations until `seconds` have passed and the workload has its
    samples; returns (results, wall seconds)."""
    ops = []
    t0 = time.perf_counter()
    while True:
        ops.append(run_op(workload, len(ops)))
        elapsed = time.perf_counter() - t0
        if (elapsed >= seconds and workload.enough(ops)) or elapsed >= OVERRUN * seconds:
            break
    return ops, time.perf_counter() - t0


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(ops, wall, setup_s, design_times, rss_mb) -> dict:
    latencies = [x for r in ops for x in r.latencies_ms]
    return {
        "setup_s": (setup_s, "s"),
        "design_s": (median_or_zero(design_times), "s"),
        "work_per_s": (sum(r.work for r in ops) / wall, "1/s"),
        "op_p50_ms": (median_or_zero(latencies), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def details(name, ops, e2e, attempted, failed) -> dict:
    """The workload's own metrics, by the names its users know them."""
    from tracing import tail_percentile

    out = {"fail_ratio": (failed / attempted, "ratio"),
           "operations": (len(ops), "count")}
    extra = {}
    for r in ops:
        for key, values in r.extra.items():
            extra.setdefault(key, []).extend(values)
    if name == "design-mass4x4":
        out["design_s"] = e2e["design_s"]
        out["design_alpha_max"] = (max(extra.get("design_alpha_max", [0.0])), "ratio")
        out["controllers_per_s"] = e2e["work_per_s"]
    elif name.startswith("online-"):
        latencies = [x for r in ops for x in r.latencies_ms]
        out["sim_steps_per_s"] = e2e["work_per_s"]
        out["step_p50_ms"] = e2e["op_p50_ms"]
        p99 = tail_percentile(latencies)
        if p99 is not None:
            out["step_p99_ms"] = (p99, "ms")
        out["step_samples"] = (len(latencies), "count")
        if "eta" in extra:
            out["eta"] = (statistics.fmean(extra["eta"]), "index")
    elif name == "pnp-trucks":
        for key in ("plug", "unplug"):
            samples = extra.get(f"{key}_ms", [])
            if samples:
                out[f"{key}_p50_ms"] = (statistics.median(samples), "ms")
            out[f"{key}_samples"] = (len(samples), "count")
    return out


def run_workload(cls, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    from envinfo import environment, peak_rss_mb
    from tracing import Tracer, layer_metric_names, layer_metrics, span_cost
    from workloads import scratch_dir

    failures = []
    with scratch_dir(os.path.join(OUT, "tmp")) as scratch:
        setup_times, design_times = [], []
        while len(setup_times) < SETUP_MAX_REPS and (len(setup_times) < SETUP_REPS
                                                    or sum(setup_times) < SETUP_MIN_S):
            workload = cls(seed, scratch)
            t0 = time.perf_counter()
            failures += workload.setup()
            setup_times.append(time.perf_counter() - t0)
            design_times += workload.design_times
        ops, wall = timed_ops(workload, seconds)
        design_times = design_times or workload.design_times
        rss = peak_rss_mb()
        layers, traced = None, []
        if trace:
            # replay the same operations with tracing on
            tracer = Tracer()
            with tracer:
                t0 = time.perf_counter()
                for k in range(len(ops)):
                    tracer.run = k
                    traced.append(run_op(workload, k))
                t1 = time.perf_counter()
            spans = tracer.spans()
            layers = dict.fromkeys(layer_metric_names(), 0)
            layers.update(layer_metrics(spans, t0, t1))
            layers["tracing.overhead_s"] = (t1 - t0) - wall
            layers["tracing.estimate_s"] = span_cost() * len(spans)
            etas = [e for r in traced for e in r.extra.get("eta", [])]
            layers["sim.eta"] = statistics.fmean(etas) if etas else 0.0
            write_spans(cls.name, seed, spans, t0)

    failures += [f for r in ops + traced for f in r.failures]
    attempted = len(setup_times) + sum(r.attempted for r in ops + traced)
    e2e = end_to_end(ops, wall, import_s + statistics.median(setup_times), design_times, rss)
    return {
        "workload": cls.name,
        "why": cls.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "unit_of_work": cls.unit,
        "environment": environment(),
        "timed_s": wall,
        "setup_times_s": setup_times,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
        "details": {k: {"value": v, "unit": u}
                    for k, (v, u) in details(cls.name, ops, e2e, attempted,
                                             len(failures)).items()},
        "layers": layers,
    }


def write_spans(name, seed, spans, t0):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"spans-{name}-seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "run", "info"],
                   "spans": [[s.name, s.start - t0, s.end - t0, s.parent, s.run, s.info]
                             for s in spans]}, fh)


def print_result(res: dict):
    print(f"== {res['workload']} seed={res['seed']} trace={res['trace']}: {res['why']}")
    env = res["environment"]
    blas = ", ".join(f"{k}={v['threads']}" for k, v in env["blas_threads"].items()) or "unknown"
    print(f"   cores={env['cores_visible']} blas threads: {blas} "
          f"threadpoolctl={env['threadpoolctl']} python {env['python']} numpy {env['numpy']} "
          f"scipy {env['scipy']} highs {env['highs']} env={env['env']}")
    for key in ("metrics", "details"):
        for name, m in res[key].items():
            print(f"   {name:<24} {m['value']:>14.6g} {m['unit']}")
    if res["layers"]:
        layers = res["layers"]
        window = res["timed_s"] + layers["tracing.overhead_s"]
        print(f"   per-layer (timed phase {window:.3f} s, traced):")
        for name, value in layers.items():
            print(f"   {name:<36} {value:>14.6g}")
        selfs = [(v, k[:-len(".self_s")]) for k, v in layers.items() if k.endswith(".self_s")]
        busiest = sorted(selfs + [(layers["optim.lp.core_s"], "optim.lp.core")],
                         reverse=True)[:5]
        print("   largest self times: " + ", ".join(
            f"{k} {v / window:.1%}" for v, k in busiest))
    for f in res["failures"][:10]:
        print(f"   FAILED: {f}")


def main(argv=None) -> int:
    import_program()
    from tracing import layer_unit
    from workloads import WORKLOADS

    import_s = time.perf_counter() - T_START
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), import_s)
               for n in names]
    os.makedirs(OUT, exist_ok=True)
    for res in results:
        print_result(res)
        path = os.path.join(OUT, f"{res['workload']}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as fh:
            json.dump(res, fh, indent=1)

    def metrics_of(res):
        if args.trace:
            return {k: {"value": v, "unit": layer_unit(k)} for k, v in res["layers"].items()}
        return res["metrics"]

    if len(results) == 1:
        metrics = metrics_of(results[0])
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in metrics_of(r).items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
