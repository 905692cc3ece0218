"""Metric names, units and directions. BENCHMARK.json lists the same
metrics; test_perfbench.py checks that the two agree."""

from __future__ import annotations

END_TO_END = [
    # name, unit, better, bound (share of the parent's median)
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("items_per_s", "1/s", "higher", 0.25),
]
# Printed and recorded with every untraced run, but not judged: under the
# CPU-speed swings of a small shared VM single-operation percentiles jump
# with short slow bursts, while throughput over the whole run (a mean) moves
# least from run to run.
REPORTED = [
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_failed_frac", "ratio"),
]

# Layers of the default toy network (ToyConfig()), in graph order.
NET_CONV_DENSE = [
    "backbone.conv1", "backbone.conv2", "backbone.conv3",
    "head.conv1", "head.conv2", "head.conv3", "head.out",
    "pnp.conv1", "pnp.conv2", "pnp.conv3", "pnp.fc1", "pnp.out",
]
NET_GROUPNORM = [f"{m}.gn{i}" for m in ("backbone", "head", "pnp") for i in (1, 2, 3)]
NET_KINDS = ["conv2d", "groupnorm", "relu", "upsample2x", "concat", "flatten", "dense"]
NET_MODULES = ["backbone", "head", "pnp"]


def layer_order(name: str) -> tuple:
    module, layer = name.split(".")
    return NET_MODULES.index(module), layer.rstrip("0123456789"), layer


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run prints."""
    out = [
        ("datio.parse_gt_json_ms", "ms", "lower"),
        ("datio.parse_ply_ms", "ms", "lower"),
        ("datio.apply_object_meta_ms", "ms", "lower"),
        ("datio.parse_result_csv_ms", "ms", "lower"),
        ("datio.vertices_parsed", "count", "higher"),
        ("datio.estimates_parsed", "count", "higher"),
        ("geom.model_diameter_ms", "ms", "lower"),
        ("geom.pose_ms", "ms", "lower"),
        ("geom.poses_built", "count", "lower"),
        ("raster.render_ms_p50", "ms", "lower"),
        ("raster.render_ms_total", "ms", "lower"),
        ("raster.calls", "count", "lower"),
        ("raster.triangles_per_s", "1/s", "higher"),
        ("raster.covered_px", "px", "higher"),
        ("metrics.e_vsd_ms", "ms", "lower"),
        ("metrics.vsd_self_ms", "ms", "lower"),
        ("metrics.e_mssd_ms", "ms", "lower"),
        ("metrics.e_mspd_ms", "ms", "lower"),
        ("metrics.e_add_ms", "ms", "lower"),
        ("metrics.e_add_s_ms", "ms", "lower"),
        ("metrics.symmetries_evaluated", "count", "higher"),
        ("metrics.average_recall_ms", "ms", "lower"),
        ("metrics.evaluate_ms", "ms", "lower"),
        ("metrics.report_ms", "ms", "lower"),
        ("metrics.matched", "count", "higher"),
        ("metrics.missing", "count", "lower"),
        ("metrics.extra", "count", "lower"),
        ("ops_failed_frac", "ratio", "lower"),
        ("net.forward_ms", "ms", "lower"),
        ("net.pruned_forward_ms", "ms", "lower"),
    ]
    for name in sorted(NET_CONV_DENSE + NET_GROUPNORM, key=layer_order):
        out.append((f"net.layer.{name}.ms", "ms", "lower"))
        if name in NET_CONV_DENSE:
            out.append((f"net.layer.{name}.macs", "MAC", "lower"))
            out.append((f"net.layer.{name}.gmac_s", "GMAC/s", "higher"))
    out += [(f"net.kind.{k}.ms", "ms", "lower") for k in NET_KINDS]
    for model in ("full", "pruned"):
        for module in NET_MODULES:
            out += [
                (f"net.module.{model}.{module}.ms", "ms", "lower"),
                (f"net.module.{model}.{module}.macs", "MAC", "lower"),
                (f"net.module.{model}.{module}.gmac_s", "GMAC/s", "higher"),
            ]
    out += [
        ("net.student_forward_ms", "ms", "lower"),
        ("net.backward_ms", "ms", "lower"),
    ]
    out += [(f"net.bwd.kind.{k}.ms", "ms", "lower") for k in NET_KINDS]
    out += [
        ("distill.teacher_targets_ms", "ms", "lower"),
        ("distill.mse_loss_ms", "ms", "lower"),
        ("distill.sgd_step_ms", "ms", "lower"),
        ("distill.fine_tune_ms", "ms", "lower"),
        ("prune.plan_prune_ms", "ms", "lower"),
        ("prune.apply_prune_ms", "ms", "lower"),
        ("net.modelio.save_model_ms", "ms", "lower"),
        ("net.modelio.load_model_ms", "ms", "lower"),
        ("trace.overhead_ms", "ms", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.unaccounted_frac", "ratio", "lower"),
    ]
    return out
