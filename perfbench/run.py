"""fastpose benchmark: one seeded workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload eval-bop --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from --seed (seven times over the run, to
time set-up and to check the bytes repeat), then runs the workload's
operation in a closed loop, one caller in this process, for --seconds and
at least the workload's `min_ops` operations. Every operation's output
is checked; a failed check exits 1. The last stdout line is a JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. A traced run spends
half its time untraced and half traced, to report tracing overhead, and
writes its spans under .perfbench/spans/.

fastpose is imported from the src/ directory next to this one, never from
an installed copy; without it the command exits 1 before measuring.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 7


def _import_fastpose() -> None:
    if not (SRC / "fastpose" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fastpose sources at {SRC}")
    sys.path[:0] = [str(HERE), str(SRC)]
    import fastpose

    if Path(fastpose.__file__).resolve().parent != (SRC / "fastpose").resolve():
        sys.exit(f"perfbench: imported fastpose from {fastpose.__file__}, not {SRC}")


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile (statistics.quantiles, inclusive)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(round(q * 100)) - 1]


def run_phase(wl, state, seconds: float, min_ops: int, k0: int, tracer=None, repeat_setups: int = 0):
    """Closed loop: the next operation starts when the previous one ends.

    Peak RSS is read once `min_ops` operations are done: a fixed amount of
    work whatever the machine's speed, with no repeated set-up before it.
    The `repeat_setups` timed set-up repeats are then spread evenly over the
    rest of the phase (any left at its end run then); their time is added
    to the phase, so operations still get `seconds` of it.
    Returns (op times ms, items per op, set-up times s, peak RSS MB, next op index)."""
    times, items, setups, marks = [], [], [], []
    peak_rss_mb = 0.0
    k = k0
    start = time.perf_counter()
    while len(times) < min_ops or time.perf_counter() - start < seconds:
        while marks and time.perf_counter() - start >= marks[0]:
            marks.pop(0)
            setups.append(wl.repeat_setup(state))
            start += setups[-1]  # set-up time does not shorten the operations' share of the run
        if tracer is not None:
            wl.instrument(tracer, state)
        t0 = time.perf_counter_ns()
        out, n_items = wl.op(state, k, tracer)
        wall = time.perf_counter_ns() - t0
        if tracer is not None:
            tracer.restore()
            tracer.end_op(wall)
        wl.check(state, out)
        times.append(wall / 1e6)
        items.append(n_items)
        k += 1
        if len(times) == min_ops:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            now = time.perf_counter() - start
            marks = [now + (seconds - now) * i / repeat_setups for i in range(repeat_setups)]
    setups += [wl.repeat_setup(state) for _ in marks]
    return times, items, setups, peak_rss_mb, k


def measure(args) -> tuple[dict, dict, int]:
    import checks
    import environment
    import report
    import specs
    from spans import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    try:
        t0 = time.perf_counter()
        state = wl.setup(args.seed, work / "inputs")
        setup_s = [time.perf_counter() - t0]
        state["seed"], state["repeat_dir"] = args.seed, work / "repeat"
        state["inputs_sha256"] = wl.digest_inputs(state)
        wl.verify_setup(state)
        k = 0
        if wl.warmup:
            out, _ = wl.op(state, k, None)
            wl.check(state, out)
            k += 1

        phase_s = args.seconds / 2 if args.trace else args.seconds
        min_ops = math.ceil(wl.min_ops / 2) if args.trace else wl.min_ops
        op_ms, items, more_setups, peak_rss_mb, k = run_phase(wl, state, phase_s, min_ops, k,
                                                              repeat_setups=SETUP_REPEATS - 1)
        setup_s += more_setups
        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "environment": environment.record(),
            "inputs_sha256": state["inputs_sha256"],
            "samples": {"setup_s": len(setup_s), "peak_rss_mb": 1, "items_per_s": len(op_ms)},
            "setup_s_all": setup_s, "op_ms_all": op_ms,
        }
        failed_frac = 0.0
        if hasattr(wl, "probe_behind_camera"):
            failed, total = wl.probe_behind_camera(state)
            failed_frac = failed / total
            record["behind_camera"] = {"failed_scenes": failed, "scenes": total}
        e2e = {
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb,
            "items_per_s": sum(items) / (sum(op_ms) / 1e3),
        }
        record["reported"] = {
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_p90": quantile(op_ms, 0.9),
            "ops_failed_frac": failed_frac,
        }
        attempted = len(op_ms) + (1 if wl.warmup else 0)
        if not args.trace:
            record["metrics"] = e2e
            return record, {name: (e2e[name], unit) for name, unit, _, _ in specs.END_TO_END}, attempted

        tracer = Tracer()
        traced_ms, _, _, _, k = run_phase(wl, state, phase_s, min_ops, k, tracer)
        attempted += len(traced_ms)
        layer = {}
        layer.update(report.eval_metrics(tracer))
        layer.update(report.infer_metrics(tracer, state.get("macs", {})))
        layer.update(report.train_metrics(tracer))
        layer["ops_failed_frac"] = failed_frac
        base = statistics.median(op_ms)
        layer["trace.overhead_ms"] = statistics.median(traced_ms) - base
        layer["trace.overhead_frac"] = layer["trace.overhead_ms"] / base
        layer["trace.unaccounted_frac"] = tracer.root_share_unaccounted()
        record["samples"] = {"untraced_ops": len(op_ms), "traced_ops": len(traced_ms), "spans": len(tracer.names)}
        record["traced_op_ms_all"] = traced_ms
        record["metrics"] = layer
        spans_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        print("\n".join(report.span_table(tracer)))
        if wl.name == "net-infer":
            print("\n".join(report.net_table(layer)))
        print(f"spans: {len(tracer.names)} written to {spans_path.relative_to(ROOT)}")
        return record, {name: (layer[name], unit) for name, unit, _ in specs.per_layer()}, attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["eval-bop", "eval-crowd", "net-infer", "net-train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.dont_write_bytecode = True
    _import_fastpose()
    import checks
    import specs

    try:
        record, metrics, attempted = measure(args)
    except checks.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"environment": record["environment"], "seed": args.seed, "seconds": args.seconds,
                      "samples": record["samples"]}))
    width = max(len(n) for n in metrics)
    for name, (value, unit) in metrics.items():
        print(f"{name:{width}s} {value:16.6f} {unit}")
    if not args.trace:
        for name, unit in specs.REPORTED:
            print(f"{name:{width}s} {record['reported'][name]:16.6f} {unit} (reported, not judged)")
    print(json.dumps({
        "correct": True, "attempted": attempted, "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
