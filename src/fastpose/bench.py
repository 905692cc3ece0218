"""Wall-clock latency measurement and accuracy/latency Pareto reporting.

Latency is the one deliberately non-reproducible quantity in the toolkit:
times come from perf_counter_ns on whatever machine runs the bench. Every
other number in a bench record (flops, params) is deterministic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .errors import EmptyInput, InvalidConfig, MalformedLine, ShapeMismatch
from .net.graph import LayerGraph, count_flops, count_params

DEFAULT_ITERATIONS = 200
DEFAULT_WARMUP = 10


@dataclass(frozen=True)
class LatencyRecord:
    label: str
    times_ms: tuple[float, ...]
    flops: int
    params: int

    @property
    def mean_ms(self) -> float:
        return float(np.mean(self.times_ms))

    @property
    def median_ms(self) -> float:
        return float(np.median(self.times_ms))


def measure_latency(graph: LayerGraph, input_shape: tuple[int, ...] | None = None,
                    iterations: int = DEFAULT_ITERATIONS, warmup: int = DEFAULT_WARMUP,
                    label: str = "model", seed: int = 0) -> LatencyRecord:
    """Time single-input forward passes; returns per-iteration times in ms."""
    if iterations < 1:
        raise InvalidConfig("iterations must be >= 1")
    if warmup < 0:
        raise InvalidConfig("warmup must be >= 0")
    if input_shape is not None and tuple(input_shape) != graph.input_shape:
        raise ShapeMismatch(f"input shape {tuple(input_shape)} does not match "
                            f"the graph's input {graph.input_shape}")
    x = rng.derive(seed, f"bench/{label}").standard_normal(graph.input_shape).astype(np.float32)
    for _ in range(warmup):
        graph.forward(x)
    times = []
    for _ in range(iterations):
        start = time.perf_counter_ns()
        graph.forward(x)
        times.append((time.perf_counter_ns() - start) / 1e6)
    flops = count_flops(graph)
    return LatencyRecord(label=label, times_ms=tuple(times),
                         flops=flops.total_macs, params=count_params(graph))


def write_latency_csv(path, records: list[LatencyRecord]) -> None:
    lines = ["label,mean_ms,median_ms,iterations,flops,params"]
    for r in records:
        lines.append(f"{r.label},{r.mean_ms:.17g},{r.median_ms:.17g},{len(r.times_ms)},{r.flops},{r.params}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class ParetoRow:
    label: str
    ar: float
    latency_ms: float
    dominated: bool


def pareto_report(entries: list[tuple[str, float, float]]) -> list[ParetoRow]:
    """Mark dominated operating points; rows sorted by latency, ties by label.

    An entry is dominated when some other entry has accuracy >= and latency
    <= with at least one strict. Quadratic scan; entry counts are tiny.
    """
    if not entries:
        raise EmptyInput("no operating points to report")
    rows = []
    for label, ar, lat in entries:
        dominated = any(
            (o_ar >= ar and o_lat <= lat) and (o_ar > ar or o_lat < lat)
            for o_label, o_ar, o_lat in entries
            if o_label != label or o_ar != ar or o_lat != lat
        )
        rows.append(ParetoRow(label=str(label), ar=float(ar), latency_ms=float(lat), dominated=dominated))
    return sorted(rows, key=lambda r: (r.latency_ms, r.label))


@dataclass(frozen=True)
class RunRecord:
    """One operating point for the accuracy/latency report."""

    label: str
    ar: float
    mean_ms: float
    median_ms: float
    flops: int = 0
    params: int = 0


def format_report_csv(runs: list[RunRecord]) -> str:
    """Combined report text; dominance is computed on median latency."""
    rows = pareto_report([(r.label, r.ar, r.median_ms) for r in runs])
    by_key = {(r.label, r.ar, r.median_ms): r for r in runs}
    lines = ["label,ar,mean_ms,median_ms,flops,params,dominated"]
    for row in rows:
        run = by_key[(row.label, row.ar, row.latency_ms)]
        lines.append(f"{run.label},{run.ar:.17g},{run.mean_ms:.17g},{run.median_ms:.17g},"
                     f"{run.flops},{run.params},{'true' if row.dominated else 'false'}")
    return "\n".join(lines) + "\n"


def write_report_csv(path, runs: list[RunRecord]) -> None:
    Path(path).write_text(format_report_csv(runs), encoding="utf-8")


def read_runs_csv(path) -> list[RunRecord]:
    """Read operating points from a CSV with a header naming at least `label`,
    `ar`, and one latency column (latency_ms, median_ms, or mean_ms). Whichever
    latency columns are absent inherit the one present; flops/params default
    to 0 when the columns are missing."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if not rows:
        raise EmptyInput(f"{path}: no rows")
    header = [h.strip() for h in rows[0][1].split(",")]
    cols = {name: i for i, name in enumerate(header)}
    if "label" not in cols or "ar" not in cols:
        raise MalformedLine(1, "header must name 'label' and 'ar' columns")
    if not any(n in cols for n in ("latency_ms", "median_ms", "mean_ms")):
        raise MalformedLine(1, "header must name a latency column (latency_ms, median_ms, or mean_ms)")
    entries = []
    for line_no, line in rows[1:]:
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != len(header):
            raise MalformedLine(line_no, f"expected {len(header)} fields, got {len(fields)}")

        def grab(names, cast, default=None):
            for name in names:
                if name in cols:
                    return cast(fields[cols[name]])
            return default

        try:
            mean = grab(("mean_ms", "latency_ms", "median_ms"), float)
            median = grab(("median_ms", "latency_ms", "mean_ms"), float)
            entries.append(RunRecord(
                label=fields[cols["label"]],
                ar=float(fields[cols["ar"]]),
                mean_ms=mean,
                median_ms=median,
                flops=grab(("flops",), int, 0),
                params=grab(("params",), int, 0),
            ))
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from exc
    if not entries:
        raise EmptyInput(f"{path}: no data rows")
    return entries
