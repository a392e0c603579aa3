"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload of ``workloads.WORKLOADS`` against the loopvertex
sources in ``src/`` of the checkout it lives in.  Whole rounds of the
workload's operations run within ``--seconds`` (at least one round);
``wall_s`` sums each operation's slowest time over the rounds.  Set-up
is timed five times, each after emptying the program's one-time caches,
once before the first round, then between rounds and after the last
one; ``setup_s`` is the slowest of them.  Every round's outputs are
checked against the workload's oracles.  With ``--trace 1`` the same
number of rounds runs again with spans around every layer, and the
per-layer metrics are reported instead of the end-to-end ones.

The last line on stdout is the result as one JSON object; it is also
written, with the spans of a traced run, under ``--results-dir``.
"""

from __future__ import annotations

import os

# fixed BLAS thread count, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5


def _import_program():
    """loopvertex from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import loopvertex
    except ImportError as exc:
        raise SystemExit(f"error: cannot import loopvertex from {src}: {exc}")
    if Path(loopvertex.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: loopvertex resolved outside {src}")
    return loopvertex


def reset_program_caches(package) -> None:
    """Empty the program's one-time caches so set-up can be timed again.

    Covers functools caches and module-level dicts named ``*CACHE*``.
    """
    for name, mod in list(sys.modules.items()):
        if not name.startswith(package.__name__ + "."):
            continue
        for attr, val in list(vars(mod).items()):
            if hasattr(val, "cache_clear"):
                val.cache_clear()
            elif isinstance(val, dict) and "CACHE" in attr.upper():
                val.clear()


def run_round(ops, errors) -> tuple[dict, dict]:
    """Time each operation; a typed program error is kept as the result."""
    results, times = {}, {}
    for op in ops:
        t0 = time.perf_counter()
        try:
            results[op.name] = op.call()
        except errors as exc:
            results[op.name] = exc
        times[op.name] = time.perf_counter() - t0
    return times, results


def run_rounds(ops, errors, seconds: float, rounds: int = 0, between=None):
    """Whole rounds: ``rounds`` of them, or as many as fit in ``seconds``.

    A further round starts only while the rounds so far plus one more of
    the same length stay within ``seconds``; the first always runs.
    ``between()`` runs untimed after each round but the last.  Also
    returns the peak resident set after the first round: later rounds
    repeat the same work and only add heap fragmentation, which varies
    from run to run.
    """
    op_times, outputs, first_peak, busy = {op.name: [] for op in ops}, [], 0.0, 0.0
    while True:
        t0 = time.perf_counter()
        times, res = run_round(ops, errors)
        for name, t in times.items():
            op_times[name].append(t)
        outputs.append(res)
        first_peak = first_peak or peak_rss_mb()
        last = time.perf_counter() - t0
        busy += last
        if (len(outputs) == rounds) if rounds else (busy + last > seconds):
            break
        if between is not None:
            between()
    return op_times, outputs, first_peak


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def base_speed_round(op_times: dict) -> float:
    """Sum over operations of each operation's slowest time across rounds.

    The CPU runs at a base speed with bursts up to 1.4x faster that last
    from under a second to a minute.  Nearly every run spends some
    rounds at the base speed, so each operation's slowest time stays on
    it; the fastest time, the median and the upper percentiles move with
    the share of the run the bursts happen to fill.
    """
    return sum(max(ts) for ts in op_times.values())


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results-dir", default=str(ROOT / ".bench_results"))
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    package = _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    errors = package.LoopVertexError

    setup_times = []

    def timed_setup():
        if len(setup_times) < SETUP_REPEATS:
            reset_program_caches(package)
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)

    timed_setup()
    ops = wl.ops()
    op_times, outputs, peak = run_rounds(ops, errors, args.seconds, between=timed_setup)
    rounds = len(outputs)
    while len(setup_times) < SETUP_REPEATS:
        timed_setup()
    wall = base_speed_round(op_times)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(package)
        try:
            reset_program_caches(package)
            wl.setup()
            tracer.phase = "round"
            traced_times, traced_outputs, _ = run_rounds(wl.ops(), errors, 0.0, rounds)
            outputs += traced_outputs
        finally:
            tracer.uninstall()

    wl.oracles()
    failed, problems = 0, []
    for res in outputs:
        round_failed, round_problems = workloads.check_round(ops, res, wl.verdict)
        failed += len(round_failed)
        problems += round_problems
    for msg in sorted(set(problems)):
        print(f"check failed: {msg}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "setup_s": {"value": max(setup_times), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
    else:
        layer = tracing.layer_metrics(tracer.spans, rounds)
        layer["trace.overhead_s"] = base_speed_round(traced_times) - wall
        metrics = {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in layer.items()}

    result = {
        "correct": not problems,
        "attempted": len(ops) * len(outputs),
        "failed": failed,
        "metrics": metrics,
    }
    out_dir = Path(args.results_dir) / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"s{args.seed}-t{args.trace}-{time.time_ns()}"
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_times": setup_times,
              "round_times": [sum(ts[i] for ts in op_times.values()) for i in range(rounds)],
              "op_times": op_times,
              "problems": sorted(set(problems)),
              "result": result}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (out_dir / f"{stem}.spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
