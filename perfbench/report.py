"""Per-layer metrics and tables from a traced phase.

Units of time, unless the name says otherwise:
* module functions (`datio.*`, `geom.*`, `metrics.*`, `distill.*`, ...):
  milliseconds per operation, summed over the calls one operation makes,
  median over the traced operations;
* network layers, kinds and modules: milliseconds per forward (or per
  backward) call, median over calls;
* `*_p50`: median over single calls.
A layer the workload never calls reads 0.
"""

from __future__ import annotations

import statistics

import specs
from spans import Tracer, median


def _is(name: str):
    return lambda n: n == name


def _per_op(tr: Tracer, name: str, values=None) -> float:
    return median(tr.per_op_ms(_is(name), values))


def _per_op_count(tr: Tracer, name: str) -> float:
    return median(tr.per_op_count(name))


def eval_metrics(tr: Tracer) -> dict:
    m = {}
    for fn in ("parse_gt_json", "parse_ply", "apply_object_meta", "parse_result_csv"):
        m[f"datio.{fn}_ms"] = _per_op(tr, f"datio.{fn}")
    m["datio.vertices_parsed"] = _per_op_count(tr, "datio.vertices_parsed")
    m["datio.estimates_parsed"] = _per_op_count(tr, "datio.estimates_parsed")
    m["geom.model_diameter_ms"] = _per_op(tr, "geom.model_diameter")
    m["geom.pose_ms"] = _per_op(tr, "geom.pose")
    m["geom.poses_built"] = _per_op_count(tr, "geom.poses_built")
    renders = tr.per_call_ms(_is("raster.render_distance_map"))
    m["raster.render_ms_p50"] = median(renders)
    m["raster.render_ms_total"] = _per_op(tr, "raster.render_distance_map")
    m["raster.calls"] = _per_op_count(tr, "raster.calls")
    triangles = sum(tr.per_op_count("raster.triangles"))
    m["raster.triangles_per_s"] = triangles / (sum(renders) / 1e3) if renders else 0.0
    m["raster.covered_px"] = _per_op_count(tr, "raster.covered_px")
    m["metrics.e_vsd_ms"] = _per_op(tr, "metrics.e_vsd")
    m["metrics.vsd_self_ms"] = _per_op(tr, "metrics.e_vsd", tr.self_ms())
    for fn in ("e_mssd", "e_mspd", "e_add", "e_add_s", "average_recall", "evaluate"):
        m[f"metrics.{fn}_ms"] = _per_op(tr, f"metrics.{fn}")
    m["metrics.symmetries_evaluated"] = _per_op_count(tr, "metrics.symmetries_evaluated")
    m["metrics.report_ms"] = _per_op(tr, "metrics.report_to_dict")
    for what in ("matched", "missing", "extra"):
        m[f"metrics.{what}"] = _per_op_count(tr, f"metrics.{what}")
    return m


def _layer_of(tr: Tracer, role: str, pred):
    """Matcher for layer spans of `role` whose layer satisfies pred(kind, name)."""
    prefix = f"net.{role}.layer."

    def match(n: str) -> bool:
        return n.startswith(prefix) and pred(tr.labels.get(n), n[len(prefix):])

    return match


def infer_metrics(tr: Tracer, macs: dict) -> dict:
    """`macs[role][layer]` holds count_flops MACs of the full and pruned graphs."""
    m = {"net.forward_ms": median(tr.per_call_ms(_is("net.full.forward"))),
         "net.pruned_forward_ms": median(tr.per_call_ms(_is("net.pruned.forward")))}
    for name in specs.NET_CONV_DENSE + specs.NET_GROUPNORM:
        ms = median(tr.per_call_ms(_is(f"net.full.layer.{name}")))
        m[f"net.layer.{name}.ms"] = ms
        if name in specs.NET_CONV_DENSE:
            layer_macs = macs.get("full", {}).get(name, 0)
            m[f"net.layer.{name}.macs"] = layer_macs
            m[f"net.layer.{name}.gmac_s"] = layer_macs / ms / 1e6 if ms else 0.0
    for kind in specs.NET_KINDS:
        m[f"net.kind.{kind}.ms"] = median(tr.per_parent_ms(_is("net.full.forward"), _layer_of(tr, "full", lambda k, n, kind=kind: k == kind)))
    for role in ("full", "pruned"):
        for module in specs.NET_MODULES:
            in_module = _layer_of(tr, role, lambda k, n, module=module: n.startswith(module + "."))
            ms = median(tr.per_parent_ms(_is(f"net.{role}.forward"), in_module))
            module_macs = sum(v for n, v in macs.get(role, {}).items() if n.startswith(module + "."))
            m[f"net.module.{role}.{module}.ms"] = ms
            m[f"net.module.{role}.{module}.macs"] = module_macs
            m[f"net.module.{role}.{module}.gmac_s"] = module_macs / ms / 1e6 if ms else 0.0
    return m


def train_metrics(tr: Tracer) -> dict:
    m = {"net.student_forward_ms": median(tr.per_call_ms(_is("net.student.forward"))),
         "net.backward_ms": median(tr.per_call_ms(_is("net.student.backward")))}
    for kind in specs.NET_KINDS:
        prefix = "net.student.bwd."
        m[f"net.bwd.kind.{kind}.ms"] = median(tr.per_parent_ms(
            _is("net.student.backward"), lambda n, kind=kind: n.startswith(prefix) and tr.labels.get(n) == kind))
    m["distill.teacher_targets_ms"] = _per_op(tr, "net.teacher.forward")
    for fn in ("mse_loss", "sgd_step", "fine_tune"):
        m[f"distill.{fn}_ms"] = _per_op(tr, f"distill.{fn}")
    for fn in ("plan_prune", "apply_prune"):
        m[f"prune.{fn}_ms"] = _per_op(tr, f"prune.{fn}")
    for fn in ("save_model", "load_model"):
        m[f"net.modelio.{fn}_ms"] = _per_op(tr, f"net.modelio.{fn}")
    return m


def span_table(tr: Tracer) -> list[str]:
    """Inclusive and self milliseconds per operation for every span name."""
    n_ops = max(len(tr.op_walls), 1)
    dur, self_ms = tr.durations_ms(), tr.self_ms()
    agg: dict[str, list] = {}
    for i, name in enumerate(tr.names):
        row = agg.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += dur[i]
        row[2] += self_ms[i]
    wall = statistics.fmean(tr.op_walls) / 1e6 if tr.op_walls else 0.0
    lines = [f"{'span':44s} {'calls/op':>9s} {'incl ms/op':>11s} {'self ms/op':>11s} {'self %':>7s}"]
    for name, (calls, incl, own) in sorted(agg.items(), key=lambda kv: -kv[1][2]):
        share = 100 * own / n_ops / wall if wall else 0.0
        lines.append(f"{name:44s} {calls / n_ops:9.1f} {incl / n_ops:11.3f} {own / n_ops:11.3f} {share:7.2f}")
    return lines


def net_table(m: dict) -> list[str]:
    """Per-layer ms next to MACs and achieved GMAC/s, rolled up per module."""
    lines = [f"{'layer (full model)':22s} {'ms':>9s} {'MACs':>14s} {'GMAC/s':>8s}"]
    for name in sorted(specs.NET_CONV_DENSE + specs.NET_GROUPNORM, key=specs.layer_order):
        macs = m.get(f"net.layer.{name}.macs", 0)
        gmac = m.get(f"net.layer.{name}.gmac_s", 0.0)
        lines.append(f"{name:22s} {m[f'net.layer.{name}.ms']:9.3f} {macs:14,d} {gmac:8.2f}")
    for role in ("full", "pruned"):
        for module in specs.NET_MODULES:
            key = f"net.module.{role}.{module}"
            lines.append(f"{role + ' ' + module:22s} {m[key + '.ms']:9.3f} {m[key + '.macs']:14,d} {m[key + '.gmac_s']:8.2f}")
    return lines
