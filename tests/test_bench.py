"""Latency measurement and Pareto report tests.

Wall-clock values are machine dependent, so the timing tests only check
structure (counts, positivity, exact mean/median recomputation); dominance
and CSV handling are checked against hand fixtures.
"""

import numpy as np
import pytest

from fastpose.bench import (
    LatencyRecord,
    RunRecord,
    format_latency_csv,
    format_report_csv,
    measure_latency,
    read_runs_csv,
)
from fastpose.cli import main
from fastpose.errors import EmptyInput, InvalidConfig, MalformedLine
from fastpose.net import LayerGraph, ToyConfig, build_toy_head, count_flops, count_params


def tiny_graph() -> LayerGraph:
    return LayerGraph((1, 2, 2), [])


class TestMeasureLatency:
    def test_record_structure(self):
        rec = measure_latency(tiny_graph(), iterations=5, warmup=1, label="tiny")
        assert rec.label == "tiny"
        assert len(rec.times_ms) == 5
        assert all(t > 0 for t in rec.times_ms)
        assert rec.flops == 0
        assert rec.params == 0

    def test_mean_median_recomputed_from_times(self):
        rec = measure_latency(tiny_graph(), iterations=9, warmup=0)
        assert rec.mean_ms == float(np.mean(rec.times_ms))
        assert rec.median_ms == float(np.median(rec.times_ms))

    def test_single_iteration_mean_equals_median(self):
        rec = measure_latency(tiny_graph(), iterations=1, warmup=0)
        assert len(rec.times_ms) == 1
        assert rec.mean_ms == rec.median_ms == rec.times_ms[0]

    def test_counts_come_from_graph(self):
        g = build_toy_head(ToyConfig(backbone_width=8, head_width=16, pnp_width=8, regions=4))
        rec = measure_latency(g, iterations=1, warmup=0)
        assert rec.flops == count_flops(g).total_macs
        assert rec.params == count_params(g)

    def test_invalid_iteration_counts(self):
        with pytest.raises(InvalidConfig):
            measure_latency(tiny_graph(), iterations=0)
        with pytest.raises(InvalidConfig):
            measure_latency(tiny_graph(), iterations=5, warmup=-1)

    @pytest.mark.parametrize("label", ["pruned,d1", "two\nlines", "cr\r", ","])
    def test_label_that_would_break_the_csv_row_rejected(self, label, layer_forward_calls):
        with pytest.raises(InvalidConfig):
            measure_latency(build_toy_head(ToyConfig(8, 16, 8, 4)), iterations=1, warmup=1, label=label)
        assert not layer_forward_calls  # rejected before any forward pass is timed



def dominated_reference(entries):
    """Strict-dominance flags by explicit pairwise comparison."""
    flags = {}
    for label, ar, lat in entries:
        flag = False
        for o_label, o_ar, o_lat in entries:
            if (o_label, o_ar, o_lat) == (label, ar, lat):
                continue
            if o_ar >= ar and o_lat <= lat and (o_ar > ar or o_lat < lat):
                flag = True
        flags[(label, ar, lat)] = flag
    return flags


def pareto_rows(entries):
    """format_report_csv on (label, ar, latency) entries, read back as
    (label, ar, latency, dominated) rows in report order."""
    runs = [RunRecord(label=label, ar=ar, mean_ms=lat, median_ms=lat) for label, ar, lat in entries]
    rows = []
    for line in format_report_csv(runs).splitlines()[1:]:
        label, ar, _, median_ms, _, _, dominated = line.split(",")
        rows.append((label, float(ar), float(median_ms), dominated == "true"))
    return rows


class TestParetoReport:
    def test_slower_and_less_accurate_is_dominated(self):
        rows = pareto_rows([("a", 0.8, 100.0), ("b", 0.7, 150.0)])
        assert {label: dominated for label, _, _, dominated in rows} == {"a": False, "b": True}

    def test_faster_but_less_accurate_is_kept(self):
        rows = pareto_rows([("a", 0.8, 100.0), ("c", 0.7, 50.0)])
        assert not any(dominated for *_, dominated in rows)

    def test_single_row_is_non_dominated(self):
        assert pareto_rows([("only", 0.5, 10.0)]) == [("only", 0.5, 10.0, False)]

    def test_identical_points_do_not_dominate_each_other(self):
        rows = pareto_rows([("a", 0.5, 10.0), ("b", 0.5, 10.0)])
        assert not any(dominated for *_, dominated in rows)

    def test_sorted_by_latency_then_label(self):
        rows = pareto_rows([("z", 0.5, 10.0), ("a", 0.6, 10.0), ("m", 0.7, 5.0)])
        assert [(label, lat) for label, _, lat, _ in rows] == [
            ("m", 5.0),
            ("a", 10.0),
            ("z", 10.0),
        ]

    def test_random_entries_match_pairwise_reference(self):
        gen = np.random.default_rng(17)
        for _ in range(30):
            n = int(gen.integers(1, 10))
            entries = [
                (f"run{i}", float(gen.integers(0, 5)) / 4, float(gen.integers(1, 6)))
                for i in range(n)
            ]
            expected = dominated_reference(entries)
            for label, ar, lat, dominated in pareto_rows(entries):
                assert dominated == expected[(label, ar, lat)]

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            format_report_csv([])


class TestFlopsAcrossPruneDegrees:
    def test_strictly_decreasing_in_degree(self):
        degrees = [0, 8, 16, 24, 28, 31]
        macs = [
            count_flops(build_toy_head(ToyConfig(d_head=d))).total_macs
            for d in degrees
        ]
        assert all(a > b for a, b in zip(macs, macs[1:]))


class TestLatencyCsv:
    def test_format(self):
        rec = LatencyRecord(label="m", times_ms=(2.0, 4.0, 9.0), flops=100, params=7)
        lines = format_latency_csv([rec]).splitlines()
        assert lines[0] == "label,mean_ms,median_ms,iterations,flops,params"
        assert lines[1] == "m,5,4,3,100,7"


class TestReportCsv:
    def runs(self):
        return [
            RunRecord(label="full", ar=0.8, mean_ms=101.5, median_ms=100.0, flops=900, params=50),
            RunRecord(label="pruned", ar=0.7, mean_ms=149.0, median_ms=150.0, flops=400, params=20),
        ]

    def test_header_and_dominance_column(self):
        lines = format_report_csv(self.runs()).splitlines()
        assert lines[0] == "label,ar,mean_ms,median_ms,flops,params,dominated"
        assert lines[1].startswith("full,") and lines[1].endswith(",false")
        assert lines[2].startswith("pruned,") and lines[2].endswith(",true")

    def test_rows_ordered_by_median_latency(self):
        runs = [
            RunRecord(label="slow", ar=0.9, mean_ms=9.0, median_ms=9.0),
            RunRecord(label="fast", ar=0.5, mean_ms=1.0, median_ms=1.0),
        ]
        lines = format_report_csv(runs).splitlines()
        assert lines[1].startswith("fast,")
        assert lines[2].startswith("slow,")

    def test_dominance_uses_median_not_mean(self):
        # "b" has the worse mean but the better median, so it survives.
        runs = [
            RunRecord(label="a", ar=0.5, mean_ms=1.0, median_ms=10.0),
            RunRecord(label="b", ar=0.5, mean_ms=100.0, median_ms=5.0),
        ]
        by_label = {}
        for line in format_report_csv(runs).splitlines()[1:]:
            fields = line.split(",")
            by_label[fields[0]] = fields[-1]
        assert by_label == {"a": "true", "b": "false"}

    def test_duplicate_operating_points_each_keep_their_run(self):
        runs = [
            RunRecord(label="m", ar=0.5, mean_ms=11.0, median_ms=10.0, flops=1, params=2),
            RunRecord(label="m", ar=0.5, mean_ms=12.0, median_ms=10.0, flops=3, params=4),
        ]
        assert format_report_csv(runs).splitlines()[1:] == [
            "m,0.5,11,10,1,2,false",
            "m,0.5,12,10,3,4,false",
        ]

    def test_write_matches_format(self, tmp_path):
        runs_path, path = tmp_path / "runs.csv", tmp_path / "report.csv"
        runs_path.write_text(format_report_csv(self.runs()))
        assert main(["report", "--runs", str(runs_path), "--out", str(path)]) == 0
        assert path.read_text() == format_report_csv(self.runs())

    def test_roundtrip_through_reader(self, tmp_path):
        path = tmp_path / "report.csv"
        path.write_text(format_report_csv(self.runs()))
        again = read_runs_csv(path)
        assert again == self.runs()


class TestReadRunsCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "runs.csv"
        path.write_text(text)
        return path

    def test_latency_column_fills_both_statistics(self, tmp_path):
        path = self.write(tmp_path, "label,ar,latency_ms\nm,0.5,12.5\n")
        runs = read_runs_csv(path)
        assert runs == [RunRecord(label="m", ar=0.5, mean_ms=12.5, median_ms=12.5)]

    def test_mean_only_header(self, tmp_path):
        path = self.write(tmp_path, "label,ar,mean_ms\nm,0.5,8\n")
        assert read_runs_csv(path)[0].median_ms == 8.0

    def test_flops_params_default_to_zero(self, tmp_path):
        path = self.write(tmp_path, "label,ar,median_ms\nm,0.5,8\n")
        run = read_runs_csv(path)[0]
        assert run.flops == 0 and run.params == 0

    def test_extra_columns_ignored(self, tmp_path):
        path = self.write(
            tmp_path,
            "label,ar,mean_ms,median_ms,flops,params,dominated\nm,0.5,2,3,10,4,false\n",
        )
        assert read_runs_csv(path)[0] == RunRecord(
            label="m", ar=0.5, mean_ms=2.0, median_ms=3.0, flops=10, params=4
        )

    def test_missing_required_columns(self, tmp_path):
        with pytest.raises(MalformedLine):
            read_runs_csv(self.write(tmp_path, "label,latency_ms\nm,1\n"))
        with pytest.raises(MalformedLine):
            read_runs_csv(self.write(tmp_path, "label,ar\nm,0.5\n"))

    @pytest.mark.parametrize("header", ["label,ar,median_ms,median_ms", "label,ar,ar,median_ms"])
    def test_repeated_column_rejected(self, tmp_path, header):
        # the later column would otherwise be read silently: median 99, not 10
        with pytest.raises(MalformedLine, match="more than once") as exc:
            read_runs_csv(self.write(tmp_path, f"{header}\na,0.5,10,99\n"))
        assert exc.value.line_no == 1

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(MalformedLine) as exc:
            read_runs_csv(self.write(tmp_path, "label,ar,latency_ms\nm,0.5\n"))
        assert "2" in str(exc.value)

    @pytest.mark.parametrize("header, message", [
        ("label,ar,ar,latency_ms", "more than once"),
        ("label,latency_ms", "'label' and 'ar'"),
        ("label,ar,flops", "latency column"),
    ])
    def test_header_error_names_the_header_line(self, tmp_path, header, message):
        with pytest.raises(MalformedLine, match=message) as exc:
            read_runs_csv(self.write(tmp_path, f"\n\n{header}\nm,0.5,1,1\n"))
        assert exc.value.line_no == 3

    def test_error_line_counts_blank_lines(self, tmp_path):
        text = "label,ar,latency_ms\n\nm,0.5,1\n\nm,high,1\n"
        with pytest.raises(MalformedLine) as exc:
            read_runs_csv(self.write(tmp_path, text))
        assert exc.value.line_no == 5

    def test_non_numeric_value(self, tmp_path):
        with pytest.raises(MalformedLine):
            read_runs_csv(self.write(tmp_path, "label,ar,latency_ms\nm,high,1\n"))

    @pytest.mark.parametrize("row", ["m,nan,1,1", "m,0.5,inf,1", "m,0.5,1,-inf"])
    def test_non_finite_value(self, tmp_path, row):
        with pytest.raises(MalformedLine) as exc:
            read_runs_csv(self.write(tmp_path, f"label,ar,mean_ms,median_ms\n{row}\n"))
        assert exc.value.line_no == 2

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyInput):
            read_runs_csv(self.write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(EmptyInput):
            read_runs_csv(self.write(tmp_path, "label,ar,latency_ms\n"))
