#!/usr/bin/env python3
"""Run one skewbench benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload fleet-csv --seed 1 --seconds 36 --trace 0

The workload runs as a closed loop with one caller in this one process:
each pipeline iteration starts when the previous one and its checks have
finished, until ``--seconds`` have passed (and at least three iterations
have run). Correctness checks run between iterations, outside the timing.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, with
times restated at a fixed host speed (see hostspeed.py);
``--trace 1`` records a span around every call into a skewbench layer and
reports the per-layer metrics instead. Every metric is printed by name with
its unit, followed by the run's details (machine, sample counts, output
digest); the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full report, and
the spans of a traced run, are written under ``.bench_out/``.

Exit status: 0 when every check passed; 1 when a check or an operation
failed (the result is still printed); 2, printing no result, when the
skewbench sources are not beside this directory.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One process, no extra threads: pin numpy's BLAS pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
from statistics import median  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE_DIGESTS = HERE / "results" / "digests.json"

MIN_ITERATIONS = 3
SETUP_PROBES = 7          # fresh interpreters per run; setup_s is their median
OVERHEAD_PROBES = 5       # host bracket-overhead measurements per traced run
TAIL_BEYOND = 10          # samples that must lie beyond a reported percentile


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set the workload up, print the wall-clock time and host-speed factor, exit")
    return parser.parse_args(argv)


def tail(values):
    """Highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``. When that percentile would not be above
    the median (fewer than ``2 * TAIL_BEYOND + 1`` samples), the maximum is
    returned with percentile ``None``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], None
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def machine_block():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def probe_setup(args) -> tuple[float, float]:
    """``(wall_s, adjusted_s)`` from launching a fresh interpreter to its
    workload being set up; see ``setup_probe`` for the child's side."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    launched = time.time()
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    finished, factor = map(float, done.stdout.split()[-2:])
    wall = finished - launched
    return wall, wall * factor


def setup_probe(args) -> int:
    """In a fresh interpreter: import and set the workload up while sampling
    the host speed, then print the wall-clock time (less the time spent
    sampling) and the host-speed factor of the samples."""
    from hostspeed import HostSpeed

    with HostSpeed() as speed:
        import pipelines
        from tracing import Tracer
        pipelines.WORKLOADS[args.workload](args.seed, Tracer(False), OUT).setup()
    print(repr(time.time() - speed.sampling_s))
    print(repr(speed.factor))
    return 0


def run_loop(workload, tracer, seconds):
    """Run the closed loop; iteration times are host-speed adjusted, with
    the wall times beside them (see hostspeed.py)."""
    from hostspeed import HostSpeed
    from pipelines import Checks

    checks = Checks()
    times, walls, digests, errors = [], [], [], []
    last = None
    start = time.perf_counter()
    index = 0
    while index < MIN_ITERATIONS or time.perf_counter() - start < seconds:
        out = last = None  # release the previous outputs before the next iteration
        try:
            with HostSpeed() as speed, tracer.span("bench.iteration", index=index):
                out = workload.iteration(index)
        except Exception:  # a failed operation ends the loop and is reported
            errors.append(traceback.format_exc())
            break
        times.append(speed.adjusted_s)
        walls.append(speed.wall_s)
        workload.check(out, checks, first=index == 0)
        digest = workload.digest(out)
        if digests:
            checks.expect(digest == digests[0], "outputs changed between iterations")
        digests.append(digest)
        workload.release(out)
        last = out
        index += 1
    return times, walls, digests, checks, errors, last


def per_layer(tracer, span_cost):
    """Per-layer metrics from the spans, with the sample count behind each."""
    by_root = defaultdict(lambda: defaultdict(float))   # name -> root -> seconds
    calls = defaultdict(list)                           # name -> spans
    for span in tracer.spans:
        by_root[span.name][span.root] += span.seconds
        calls[span.name].append(span)
    metrics, counts, tails = {}, {}, {}

    def put(name, values):
        if values:
            metrics[name] = median(values)
            counts[name] = len(values)

    def totals(span_name):
        return list(by_root[span_name].values())

    def rate(span_name, key, scale=1.0):
        return [s.attrs[key] / scale / s.seconds for s in calls[span_name] if key in s.attrs]

    put("simulator.simulate_dataset.s", totals("simulator.simulate_dataset"))
    put("simulator.simulate_dataset.rows_per_s", rate("simulator.simulate_dataset", "rows"))
    for io in ("write_dataset", "read_dataset"):
        put(f"schema.{io}.s", totals(f"schema.{io}"))
        put(f"schema.{io}.mb_per_s", rate(f"schema.{io}", "bytes", 1e6))
    for fn in ("build_matrix", "minmax_fit_transform", "pca", "kmeans"):
        put(f"analysis.{fn}.s", totals(f"analysis.{fn}"))
    put("analysis.kmeans.lloyd_iters", [s.attrs["lloyd_iters"] for s in calls["analysis.kmeans"]])
    for kind in ("random_forest", "knn"):
        put(f"analysis.train_classifier.{kind}.s", totals(f"analysis.train_classifier.{kind}"))
        put(f"analysis.evaluate.{kind}.s", totals(f"analysis.evaluate.{kind}"))
    forest = calls["analysis.train_classifier.random_forest"]
    put("analysis.train_classifier.random_forest.s_per_tree",
        [s.seconds / s.attrs["trees"] for s in forest])
    put("analysis.evaluate.knn.macro_f1", [s.attrs["macro_f1"] for s in calls["analysis.evaluate.knn"]])
    sessions = [s.seconds for s in calls["collector.run_session"]]
    put("collector.run_session.s", sessions)
    if sessions:
        name = "collector.run_session.s_tail"
        metrics[name], tails[name] = tail(sessions)
        counts[name] = len(sessions)
    put("collector.run_session.samples_per_s", rate("collector.run_session", "rows"))
    put("collector.run_session.rows_written", [s.attrs["rows"] for s in calls["collector.run_session"]])
    overhead = [s.attrs for s in calls["probes.measure_overhead"]]
    put("probes.measure_overhead.host_ns_mean", [o["mean"] for o in overhead])
    put("probes.measure_overhead.host_ns_max", [o["max"] for o in overhead])
    iterations = calls["bench.iteration"]
    put("bench.pipeline_s", [s.seconds for s in iterations])
    roots = {i.id for i in iterations}
    spans_per_iteration = sum(1 for s in tracer.spans if s.root in roots) / max(len(roots), 1)
    metrics["bench.trace_overhead_share"] = spans_per_iteration * span_cost / metrics["bench.pipeline_s"]
    counts["bench.trace_overhead_share"] = len(iterations)
    return metrics, counts, tails


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skewbench" / "__init__.py").is_file():
        print(f"perfbench: skewbench sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)
    import pipelines
    from skewbench import probes
    from tracing import Tracer, span_cost_s

    if args.workload not in pipelines.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(pipelines.WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = pipelines.WORKLOADS[args.workload]
    # On SIGTERM, unwind through the ``finally`` below so the work directory
    # is removed and a running set-up probe is killed and waited for.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = Tracer(bool(args.trace))
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    workload = workload_cls(args.seed, tracer, workdir)
    try:
        with tracer.span("bench.setup"):
            workload.setup()
        inprocess_setup_s = time.perf_counter() - PROCESS_START
        times, walls, digests, checks, errors, last = run_loop(workload, tracer, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        details = {"iterations": len(times), "inprocess_setup_s": inprocess_setup_s}
        if args.trace:
            registry = probes.host_registry()
            for _ in range(OVERHEAD_PROBES):
                with tracer.span("probes.measure_overhead") as span:
                    span.set(**registry.measure_overhead("timer"))
            measured, counts, tails = per_layer(tracer, span_cost_s()) if times else ({}, {}, {})
            declared = spec["per_layer"]
            # A layer the workload never calls did no work: it reads 0.
            values = {m["name"]: measured.get(m["name"], 0.0) for m in declared}
            details["tail_percentiles"] = tails
        else:
            declared = spec["end_to_end"]
            quality = workload.quality(last) if last is not None else {}
            setup_probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
            setup_samples = [adjusted for _, adjusted in setup_probes]
            values = {
                "setup_s": median(setup_samples),
                "pipeline_s": median(times) if times else 0.0,
                "rows_per_s": workload.rows_per_iteration * len(times) / sum(times) if times else 0.0,
                "peak_rss_mb": peak_rss_mb,
                **quality,
            }
            counts = {"setup_s": len(setup_samples), "pipeline_s": len(times)}
            details.update(setup_samples_s=setup_samples,
                           setup_wall_s=[wall for wall, _ in setup_probes],
                           iteration_s=times, iteration_wall_s=walls,
                           pipeline_wall_s=median(walls) if walls else None,
                           pipeline_s_min=min(times) if times else None,
                           pipeline_s_tail=dict(zip(("value", "percentile"), tail(times))) if times else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(times) + len(errors) + checks.attempted
    failed = len(errors) + len(checks.failures)
    if not args.trace:
        values["success_rate"] = (attempted - failed) / attempted
    # A metric can be missing only when the first iteration failed.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in declared}
    reference = json.loads(REFERENCE_DIGESTS.read_text()) if REFERENCE_DIGESTS.exists() else {}
    expected_digest = reference.get(args.workload, {}).get(str(args.seed))
    digest = digests[0] if digests else None
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_block(), "metrics": metrics,
        "sample_counts": counts, "error_rate": failed / attempted,
        "digest": digest,
        "digest_matches_reference": None if expected_digest is None else digest == expected_digest,
        "checks": {"attempted": attempted, "failed": failed,
                   "failures": checks.failures, "errors": errors},
        **details,
    }
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2) + "\n")
    if args.trace:
        spans = [s.to_json() for s in tracer.spans]
        stem.with_suffix(".spans.json").write_text(json.dumps(spans) + "\n")

    print_report(report)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def print_report(report) -> None:
    m = report["machine"]
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"iterations {report['iterations']}")
    print(f"machine  nproc={m['nproc']} python={m['python']} numpy={m['numpy']} {m['machine']}")
    tails = report.get("tail_percentiles", {})
    for name, metric in report["metrics"].items():
        n = report["sample_counts"].get(name)
        note = f"  (median of {n})" if n else ""
        if name in tails:
            pct = tails[name]
            note = f"  (slowest of {n})" if pct is None else f"  (p{pct:.1f} of {n})"
        print(f"  {name:<50} {metric['value']:>16.6g} {metric['unit']}{note}")
    c = report["checks"]
    print(f"  {'error_rate':<50} {report['error_rate']:>16.6g} ratio"
          f"  ({c['failed']} failed of {c['attempted']} attempted)")
    if report.get("pipeline_wall_s") is not None:
        print(f"  {'pipeline wall time, unadjusted':<50} {report['pipeline_wall_s']:>16.6g} s"
              f"  (median of {len(report['iteration_wall_s'])}; setup "
              f"{median(report['setup_wall_s']):.6g} s)")
    match = report["digest_matches_reference"]
    state = "no reference for this seed" if match is None else ("matches reference" if match else "DIFFERS from reference")
    print(f"digest   sha256:{report['digest']}  ({state})")
    for failure in c["failures"]:
        print(f"FAILED   {failure}")
    for error in c["errors"]:
        print(f"ERROR    {error.rstrip()}")


if __name__ == "__main__":
    sys.exit(main())
