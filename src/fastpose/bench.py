"""Wall-clock latency measurement and accuracy/latency Pareto reporting.

Latency is the one deliberately non-reproducible quantity in the toolkit:
times come from perf_counter_ns on whatever machine runs the bench. Every
other number in a bench record (flops, params) is deterministic.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import rng
from .errors import EmptyInput, InvalidConfig, MalformedLine
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


def measure_latency(graph: LayerGraph, iterations: int = DEFAULT_ITERATIONS, warmup: int = DEFAULT_WARMUP,
                    label: str = "model", seed: int = 0) -> LatencyRecord:
    """Time single-input forward passes; returns per-iteration times in ms."""
    if iterations < 1:
        raise InvalidConfig("iterations must be >= 1")
    if warmup < 0:
        raise InvalidConfig("warmup must be >= 0")
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


def _dominated(points: list[tuple[float, float]]) -> list[bool]:
    """Per (accuracy, latency) point: does some point have accuracy >= and
    latency <= with at least one strict? Compared by position, so duplicate
    points stay distinct; a point never strictly beats itself. Quadratic
    scan; point counts are tiny."""
    if not points:
        raise EmptyInput("no operating points to report")
    return [any(o_ar >= ar and o_lat <= lat and (o_ar > ar or o_lat < lat) for o_ar, o_lat in points)
            for ar, lat in points]


def pareto_report(entries: list[tuple[str, float, float]]) -> list[ParetoRow]:
    """Mark dominated operating points; rows sorted by latency, ties by label."""
    flags = _dominated([(ar, lat) for _, ar, lat in entries])
    rows = [ParetoRow(label=str(label), ar=float(ar), latency_ms=float(lat), dominated=dominated)
            for (label, ar, lat), dominated in zip(entries, flags)]
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
    flags = _dominated([(r.ar, r.median_ms) for r in runs])
    lines = ["label,ar,mean_ms,median_ms,flops,params,dominated"]
    for run, dominated in sorted(zip(runs, flags), key=lambda pair: (pair[0].median_ms, pair[0].label)):
        lines.append(f"{run.label},{run.ar:.17g},{run.mean_ms:.17g},{run.median_ms:.17g},"
                     f"{run.flops},{run.params},{'true' if dominated else 'false'}")
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
            run = RunRecord(
                label=fields[cols["label"]],
                ar=float(fields[cols["ar"]]),
                mean_ms=grab(("mean_ms", "latency_ms", "median_ms"), float),
                median_ms=grab(("median_ms", "latency_ms", "mean_ms"), float),
                flops=grab(("flops",), int, 0),
                params=grab(("params",), int, 0),
            )
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from exc
        if not all(map(math.isfinite, (run.ar, run.mean_ms, run.median_ms))):
            raise MalformedLine(line_no, "ar and latency must be finite")
        entries.append(run)
    if not entries:
        raise EmptyInput(f"{path}: no data rows")
    return entries
