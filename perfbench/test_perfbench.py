"""Tests of the benchmark itself: seeded inputs repeat byte for byte, and
every output check rejects a perturbed count or digest.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import generate  # noqa: E402
import specs  # noqa: E402
from spans import Tracer  # noqa: E402

from fastpose.metrics import ErrorSample  # noqa: E402
from fastpose.net import ToyConfig, build_toy_gdrn, count_flops  # noqa: E402
from fastpose.prune import PruneConfig, apply_prune, plan_prune  # noqa: E402


@pytest.mark.parametrize("make", [generate.generate_eval_bop, generate.generate_eval_crowd])
def test_same_seed_same_bytes(tmp_path, make):
    make(7, tmp_path / "a")
    make(7, tmp_path / "b")
    make(8, tmp_path / "c")
    a = generate.tree_digest(tmp_path / "a")
    assert a == generate.tree_digest(tmp_path / "b")
    assert a != generate.tree_digest(tmp_path / "c")


def test_net_inputs_repeat():
    a, b = generate.net_inputs(3, 2), generate.net_inputs(3, 2)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not np.array_equal(a[0], generate.net_inputs(4, 1)[0])
    assert generate.net_seed(3) == generate.net_seed(3) != generate.net_seed(4)


def test_plans_count_what_was_written(tmp_path):
    plan = generate.generate_eval_bop(1, tmp_path)
    gt = json.loads((tmp_path / "scene" / "gt.json").read_text())
    rows = (tmp_path / "scene" / "estimates.csv").read_text().splitlines()[1:]
    assert plan.instances == len(gt["instances"]) == 8
    assert (plan.matched, plan.missing, plan.extra, plan.duplicates) == (7, 1, 2, 2)
    assert len(rows) == plan.matched + plan.duplicates + plan.extra
    plans = generate.generate_eval_crowd(1, tmp_path / "crowd")
    behind = [s for s, p in plans.items() if p.behind_camera]
    assert behind == [8, 16, 24]


def _samples(key, value=0.0):
    s, i, o = key
    return [
        ErrorSample(s, i, o, "vsd", vsd_errors=(value,) * 10),
        ErrorSample(s, i, o, "mssd", error_value=value),
        ErrorSample(s, i, o, "mspd", error_value=value),
        ErrorSample(s, i, o, "add", error_value=value),
    ]


def test_matching_check_rejects_perturbed_counts():
    plan = generate.Plan(matched=7, missing=1, extra=2)
    checks.check_matching(7, 1, 2, plan)
    for got in ((8, 1, 2), (7, 0, 2), (7, 1, 1)):
        with pytest.raises(checks.CheckFailed):
            checks.check_matching(*got, plan)


def test_exact_zero_check():
    key = (1, 1, 1)
    checks.check_exact_zero(_samples(key), [key])
    with pytest.raises(checks.CheckFailed):
        checks.check_exact_zero(_samples(key, 1e-12), [key])
    with pytest.raises(checks.CheckFailed):
        checks.check_exact_zero(_samples(key)[:2], [key])


def test_symmetric_exact_check():
    key = (1, 3, 2)
    checks.check_symmetric_exact(_samples(key, 1e-12), [key], {2: 100.0})
    with pytest.raises(checks.CheckFailed):
        checks.check_symmetric_exact(_samples(key, 1e-3), [key], {2: 100.0})


def test_same_digest_check():
    seen = {}
    checks.check_same(seen, "scene1", checks.digest(b"report"), "report digest")
    checks.check_same(seen, "scene1", checks.digest(b"report"), "report digest")
    with pytest.raises(checks.CheckFailed):
        checks.check_same(seen, "scene1", checks.digest(b"report "), "report digest")


@pytest.mark.parametrize("cfg", [ToyConfig(), ToyConfig(backbone_width=8, head_width=16, pnp_width=8, regions=4)])
def test_mac_count_matches_count_flops(cfg):
    full = build_toy_gdrn(cfg)
    flops = count_flops(full)
    checks.check_macs(flops.per_layer, flops.total_macs, checks.toy_macs(cfg))
    pruned_cfg = ToyConfig(**{**cfg.to_dict(), "d_head": 1, "d_pnp": 1})
    pruned = apply_prune(full, plan_prune(full, PruneConfig("both", 1, 1)))
    pf = count_flops(pruned)
    checks.check_macs(pf.per_layer, pf.total_macs, checks.toy_macs(pruned_cfg))


def test_mac_check_rejects_perturbed_count():
    cfg = ToyConfig()
    flops = count_flops(build_toy_gdrn(cfg))
    expected = checks.toy_macs(cfg)
    bad = dict(expected, **{"head.conv3": expected["head.conv3"] + 1})
    with pytest.raises(checks.CheckFailed):
        checks.check_macs(flops.per_layer, flops.total_macs, bad)
    with pytest.raises(checks.CheckFailed):
        checks.check_macs(flops.per_layer, flops.total_macs + 1, expected)


def test_loss_trace_check():
    trace = [0.3, 0.2, 0.1]
    checks.check_loss_trace(trace, None)
    checks.check_loss_trace(trace, list(trace))
    with pytest.raises(checks.CheckFailed):
        checks.check_loss_trace(trace, [0.3, 0.2, 0.1 + 1e-17 + 1e-16])
    with pytest.raises(checks.CheckFailed):
        checks.check_loss_trace([0.1, 0.2, 0.3], None)


def test_eval_path_passes_checks_and_behind_camera_raises(tmp_path):
    import workloads

    crowd = workloads.EvalCrowd()
    state = crowd.setup(5, tmp_path)
    out, items = crowd.op(state, 0, None)
    crowd.check(state, out)
    assert items == generate.CROWD_IMAGES * len(generate.crowd_objects())
    # a perturbed plan fails the same output
    scene_id = out[0]
    state["plans"][scene_id].extra += 1
    with pytest.raises(checks.CheckFailed):
        crowd.check(state, out)
    state["plans"][scene_id].extra -= 1
    failed, total = crowd.probe_behind_camera(state)
    assert failed / total == 1 / generate.CROWD_BEHIND_EVERY


def test_self_time_and_outermost():
    tr = Tracer()
    a = tr.open("a")
    b = tr.open("b")
    tr.close(b)
    c = tr.open("a")
    tr.close(c)
    tr.close(a)
    tr.starts[:] = [0, 1_000_000, 3_000_000]
    tr.ends[:] = [10_000_000, 2_000_000, 5_000_000]
    tr.end_op(10_000_000)
    assert tr.self_ms() == [7.0, 1.0, 2.0]
    assert tr.per_op_ms(lambda n: n == "a") == [10.0]   # the nested "a" is not counted twice
    assert tr.per_parent_ms(lambda n: n == "a", lambda n: n == "b") == [1.0, 0.0]
    assert tr.root_share_unaccounted() == 0.0


def test_patch_restores_originals():
    import types

    mod = types.SimpleNamespace(f=lambda x: x + 1)
    orig = mod.f
    tr = Tracer()
    assert tr.patch(mod, "f", "mod.f")
    assert not tr.patch(mod, "missing", "mod.missing")
    assert mod.f(1) == 2 and tr.names == ["mod.f"]
    tr.restore()
    assert mod.f is orig


def test_benchmark_json_matches_specs():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]] == specs.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == specs.per_layer()
    assert len(specs.per_layer()) <= 128
    import workloads

    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
