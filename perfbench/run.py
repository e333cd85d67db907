"""Benchmark of traitlex: three workloads through the real user commands.

Run from the repository root:

    python3 perfbench/run.py --workload trait-build --seed 1 --seconds 20 --trace 0

The program is imported from ./src, never from an installed copy.  The
run sets its inputs up several times (setup_s is the median), runs one
warm-up round, then repeats rounds for --seconds.  With --trace 0 it
reports the end-to-end metrics; with --trace 1 it alternates untraced and
traced rounds and reports the per-layer metrics of the traced ones, plus
the tracing overhead per round.  Every operation's output is checked; the
last line of standard output is one JSON object, and the exit code is 0
only when every check passed.  Details and spans go to perfbench/out/.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CONFIRM_SEED = 1009  # a gain found on other seeds is confirmed on this one
MIN_ROUNDS = 3
MIN_SETUPS, SETUP_BUDGET_S, MAX_SETUPS = 3, 1.0, 25

END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_ms.p50", "ms"),
    ("latency_ms.p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _bootstrap():
    """Put ./src first on the path and import traitlex from there."""
    src = ROOT / "src"
    if not (src / "traitlex" / "__init__.py").is_file():
        sys.exit(f"perfbench: no traitlex sources under {src}")
    if not (ROOT / "BENCHMARK.json").is_file():
        sys.exit(f"perfbench: no BENCHMARK.json in {ROOT}")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)
    sys.path.insert(0, str(src))
    import traitlex

    if Path(traitlex.__file__).resolve().parent != (src / "traitlex").resolve():
        sys.exit(f"perfbench: imported traitlex from {traitlex.__file__}, not {src}")


def _blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _environment(seed):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "seed": seed,
        "confirm_seed": CONFIRM_SEED,
    }


def _declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return (
        tuple((m["name"], m["unit"]) for m in spec["end_to_end"]),
        tuple((m["name"], m["unit"]) for m in spec["per_layer"]),
    )


def _set_up(workload, seed, work, session):
    """Build the inputs several times; return the last state and each Timing."""
    timings, state, previous = [], None, None
    while len(timings) < MIN_SETUPS or (
            sum(t.seconds for t in timings) < SETUP_BUDGET_S and len(timings) < MAX_SETUPS):
        directory = work / f"setup{len(timings)}"
        directory.mkdir(parents=True)
        start = time.perf_counter()
        state = workload.setup(seed, directory)
        timings.append(session.track(start, time.perf_counter()))
        if previous is not None:
            shutil.rmtree(previous)
        previous = directory
    return state, timings


def _measure(workload, state, session, seconds, tracer):
    """Rounds for `seconds`; with a tracer, every other round is traced."""
    rounds = {False: [], True: []}
    walls = {False: [], True: []}
    per_phase = 2 if tracer is not None else 1
    start = time.perf_counter()
    index = 0
    while index < MIN_ROUNDS * per_phase or time.perf_counter() - start < seconds:
        traced = tracer is not None and index % 2 == 0
        if traced:
            tracer.install()
            session.tracer = tracer
        try:
            t0 = time.perf_counter()
            result = workload.round(state, session, index)
            wall = session.track(t0, time.perf_counter())
        finally:
            if traced:
                tracer.uninstall()
                session.tracer = None
        rounds[traced].append(result)
        walls[traced].append(wall)
        index += 1
    return rounds, walls


def _percentile(values, q):
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _end_to_end(rounds, setups, scaled=True):
    """End-to-end metrics from scaled times, or from raw ones."""
    def secs(timings):
        return sum(t.scaled if scaled else t.seconds for t in timings)

    throughput = [r.items / secs(r.batch) for r in rounds if r.batch]
    latencies = [1000 * secs(req) for r in rounds for req in r.requests]
    values = {
        "throughput_per_s": statistics.median(throughput) if throughput else 0.0,
        "latency_ms.p50": _percentile(latencies, 50),
        "latency_ms.p90": _percentile(latencies, 90),
        "setup_s": statistics.median(secs([t]) for t in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("trait-build", "trait-score", "survey-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _bootstrap()
    import tracing
    import workloads
    from session import Session

    declared_e2e, declared_layers = _declared_metrics()
    if declared_e2e != END_TO_END or set(declared_layers) != set(tracing.LAYER_METRICS):
        sys.exit("perfbench: BENCHMARK.json lists other metrics than perfbench/run.py reports")

    workload = workloads.WORKLOADS[args.workload]()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        with Session() as session:
            state, setups = _set_up(workload, args.seed, work, session)
            workload.round(state, session, "warmup")
            rounds, walls = _measure(workload, state, session, args.seconds, tracer)
    except (workloads.SetupError, tracing.BoundaryMissing) as e:
        sys.exit(f"perfbench: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    session.scale()

    e2e = _end_to_end(rounds[False], setups)
    raw = _end_to_end(rounds[False], setups, scaled=False)
    samples = {
        "setups": len(setups), "rounds": len(rounds[False]), "traced_rounds": len(rounds[True]),
        "requests": sum(len(r.requests) for r in rounds[False]),
        "sample_task_ms": 1000 * statistics.median(s for _, s in session.samples),
    }
    if tracer is not None:
        overhead = (statistics.median(t.scaled for t in walls[True])
                    - statistics.median(t.scaled for t in walls[False]))
        op_scale = {op: t.scaled / t.seconds for op, t in session.op_timings.items() if t.seconds}
        metrics = tracer.layer_metrics(len(rounds[True]), overhead, op_scale)
        tracer.write_spans(OUT / f"{tag}-spans.jsonl")
    else:
        metrics = e2e
    env = _environment(args.seed)
    failed_fraction = session.failed / max(session.attempted, 1)
    record = {
        "workload": args.workload, "metric_names": workload.metric_names, "env": env, "inputs": state.inputs, "samples": samples,
        "end_to_end": e2e, "end_to_end_unscaled": raw, "failed_fraction": failed_fraction,
        "problems": session.problems,
        "batch_s": [[t.seconds for t in r.batch] if r.batch else None for r in rounds[False]],
    }
    if tracer is not None:
        record["per_layer"] = metrics
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key in ("env", "inputs", "samples"):
        print(f"{key} {json.dumps(record[key])}")
    for name, metric in e2e.items():
        label = f"{workload.metric_names[name]} ({name})" if name in workload.metric_names else name
        print(f"  {label:<42} {metric['value']:12.6g} {metric['unit']:<4}"
              f"  (unscaled {raw[name]['value']:.6g})")
    print(f"  {'failed_fraction':<42} {failed_fraction:12.6g}"
          f"       ({session.failed} of {session.attempted} operations)")
    for problem in session.problems:
        print("FAILED " + problem)
    correct = session.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": session.attempted, "failed": session.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
