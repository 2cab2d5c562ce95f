"""relaycap benchmark: one seeded workload per run, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Workloads: ``closed-form``, ``solve`` and ``bounds`` (see perfbench/README.md).
The run imports relaycap from ``src/`` of the checkout it sits in, sets up
its inputs several times, then runs identical passes until ``--seconds`` have
gone (at least two), checking every pass's outputs. It prints one line per
metric and, as the last line, a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``. A traced run alternates untraced and
traced passes, takes the per-layer numbers from the traced ones, states the
tracing overhead and writes its spans to ``.perfbench/traces/``.
"""

from __future__ import annotations

import os

# The solver is single-threaded numpy; pin BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import time  # noqa: E402

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import declared, per_layer_metrics  # noqa: E402
from tracing import LAYERS, UNAVAILABLE, Tracer  # noqa: E402
from workloads import SOLVE_RESTARTS, WORKLOADS, Checks, Pass, solve_points  # noqa: E402

SETUPS = 9
MIN_PASSES = 2


def fresh_import(src: Path):
    """Import relaycap and its layer modules from ``src`` anew.

    Any copy already loaded is dropped first, so each set-up pays the import.
    """
    for name in [n for n in sys.modules if n == "relaycap" or n.startswith("relaycap.")]:
        del sys.modules[name]
    rc = importlib.import_module("relaycap")
    for layer in LAYERS:
        importlib.import_module(f"relaycap.{layer}")
    if Path(rc.__file__).resolve().parent != (src / "relaycap").resolve():
        raise ImportError(f"relaycap imported from {rc.__file__}, not from {src}")
    return rc


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "loadavg": list(os.getloadavg())}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "relaycap" / "__init__.py").is_file():
        print(f"perfbench: no relaycap sources at {src}/relaycap", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    env_start = environment()
    workdir = ROOT / ".perfbench" / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        return run(args, src, workdir, env_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, src: Path, workdir: Path, env_start: dict) -> int:
    cls = WORKLOADS[args.workload]
    setup_times = []
    for i in range(SETUPS):
        t0 = time.perf_counter() if i else PROCESS_START
        rc = fresh_import(src)
        wl = cls(rc, args.seed, workdir)
        setup_times.append(time.perf_counter() - t0)

    tracer = Tracer() if args.trace else None
    checks = Checks()
    passes = []  # (traced, wall seconds, Pass, measures)
    deadline = time.perf_counter() + args.seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        traced = tracer is not None and len(passes) % 2 == 1
        p = Pass(tracer if traced else None)
        if traced:
            tracer.install(rc)
        try:
            t0 = time.perf_counter()
            outs = wl.run_pass(p)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.uninstall()
        measures = wl.check(outs, checks, p)
        if passes:
            checks.check(measures == passes[0][3],
                         "a pass's deterministic measures differ from pass 1")
        passes.append((traced, wall, p, measures))

    first = passes[0][3]
    env_end = environment()
    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  "
          f"nproc {env_start['nproc']}  loadavg {env_start['loadavg']} -> {env_end['loadavg']}")
    print(f"first_setup_s {setup_times[0]:.6f} s  "
          "(process start, numpy and relaycap import, inputs)")
    error_rate = checks.failed / checks.attempted
    print(f"error_rate {error_rate:.6g} ratio  "
          f"({checks.failed} failed / {checks.attempted} checks)")
    for what in checks.failures[:20]:
        print(f"  FAILED {what}")

    if tracer is None:
        metrics = end_to_end(args.workload, setup_times, passes, first)
        spec = declared()["end_to_end"]
    else:
        untraced = [wall for traced, wall, _, _ in passes if not traced]
        traced_walls = [wall for traced, wall, _, _ in passes if traced]
        overhead = statistics.median(traced_walls) - statistics.median(untraced)
        labels = [label for label, _, _ in solve_points(rc)]
        metrics = per_layer_metrics(tracer, len(traced_walls), wl, first, overhead,
                                    SOLVE_RESTARTS, labels)
        spec = declared()["per_layer"]
        print(f"tracing overhead {overhead:.6f} s per pass "
              f"(traced median {statistics.median(traced_walls):.6f} s, "
              f"untraced median {statistics.median(untraced):.6f} s)")
        for name, why in UNAVAILABLE.items():
            print(f"{name} unavailable: {why}")
        trace_path = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(trace_path), {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "env_start": env_start, "env_end": env_end,
            "passes": len(passes), "traced_passes": len(traced_walls),
            "overhead_s_per_pass": overhead, "metrics": metrics,
        })
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    units = {name: m["unit"] for name, m in metrics.items()}
    if units != {m["name"]: m["unit"] for m in spec}:
        raise RuntimeError("the metrics measured differ from those BENCHMARK.json declares")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


def end_to_end(workload: str, setup_times, passes, first: dict) -> dict:
    """End-to-end metrics of an untraced run; prints the workload's named figures."""
    walls = [wall for _, wall, _, _ in passes]
    latencies = [t for _, _, p, _ in passes for _, _, t in p.ops]
    throughput = statistics.median(first["items"] / w for w in walls)
    if workload == "closed-form":
        print(f"sweep_points_per_s {throughput!r} points/s")
    elif workload == "bounds":
        print(f"bounds_models_per_s {throughput!r} models/s")
    else:
        for group in ("binary", "parallel"):
            secs = statistics.median(p.group_seconds(group) for _, _, p, _ in passes)
            print(f"solve_{group}_s {secs!r} s")
        print(f"solve_deficit_bits {first['deficit_bits']!r} bits")
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "throughput_per_s": {"value": throughput, "unit": "1/s"},
        "op_p50_ms": {"value": 1e3 * statistics.median(latencies), "unit": "ms"},
        "deficit_bits": {"value": first["deficit_bits"], "unit": "bits"},
    }


if __name__ == "__main__":
    sys.exit(main())
