"""Structured pruning tests: L1 ranking, group-aligned plans, plan
serialization, and graph surgery with forward-equivalence checks."""

import numpy as np
import pytest

from fastpose.errors import InconsistentPlan, InvalidConfig, TooAggressive
from fastpose.net import (
    LayerGraph,
    ToyConfig,
    build_toy_gdrn,
    build_toy_head,
    count_flops,
    count_params,
)
from fastpose.net.toy import PRUNABLE_MODULES
from fastpose.prune import (
    PruneConfig,
    _delete,
    PrunePlan,
    apply_prune,
    filter_l1_norms,
    find_prunable,
    plan_prune,
    plan_prune_layers,
)

from oracles import zero_path_reference


def small_cfg(**kw) -> ToyConfig:
    base = dict(backbone_width=8, head_width=16, pnp_width=8, regions=4)
    base.update(kw)
    return ToyConfig(**base)


class TestRanking:
    def test_l1_norms_sum_absolute_filter_entries(self):
        w = np.array(
            [[[[1.0]], [[-2.0]]], [[[3.0]], [[4.0]]]], dtype=np.float32
        )
        np.testing.assert_array_equal(filter_l1_norms(w), [3.0, 7.0])


class TestFindPrunable:
    def test_toy_network_prunable_convs(self):
        g = build_toy_gdrn(small_cfg())
        found = {conv.name: gsize for conv, gsize in find_prunable(g)}
        assert found == {
            "head.conv1": 8,
            "head.conv2": 8,
            "head.conv3": 8,
            "pnp.conv1": 4,
            "pnp.conv2": 4,
            "pnp.conv3": 4,
        }

    def test_head_out_is_never_prunable(self):
        # head.out feeds the channel-splitting concat, not a group norm.
        g = build_toy_gdrn(small_cfg())
        names = {conv.name for conv, _ in find_prunable(g, prefixes=("",))}
        assert "head.out" not in names

    def test_prefix_filters_selection(self):
        g = build_toy_gdrn(small_cfg())
        names = {conv.name for conv, _ in find_prunable(g, prefixes=("pnp.",))}
        assert names == {"pnp.conv1", "pnp.conv2", "pnp.conv3"}


class TestPlanning:
    def test_zero_degrees_give_empty_plan(self):
        g = build_toy_gdrn(small_cfg())
        assert plan_prune(g, PruneConfig()).removed == {}

    def test_zeroed_group_is_selected(self):
        g = build_toy_head(small_cfg(head_width=64))
        conv = next(l for l in g.layers if l.name == "head.conv1")
        conv.weight[24:32] = 0.0
        plan = plan_prune(g, PruneConfig(d_head=1))
        assert plan.removed["head.conv1"] == tuple(range(24, 32))

    def test_default_width_max_degree_removes_248(self):
        g = build_toy_head(ToyConfig())
        plan = plan_prune(g, PruneConfig(d_head=31))
        for name in ("head.conv1", "head.conv2", "head.conv3"):
            assert len(plan.removed[name]) == 248

    def test_planning_is_deterministic(self):
        g = build_toy_gdrn(small_cfg(seed=2))
        cfg = PruneConfig(d_head=1, d_pnp=1)
        assert plan_prune(g, cfg).removed == plan_prune(g, cfg).removed

    def test_degree_equal_to_group_count_rejected(self):
        # head_width=16 with groups of 8 has only two groups.
        g = build_toy_head(small_cfg())
        with pytest.raises(TooAggressive):
            plan_prune(g, PruneConfig(d_head=2))

    def test_unknown_layer_rejected(self):
        g = build_toy_head(small_cfg())
        with pytest.raises(InconsistentPlan):
            plan_prune_layers(g, {"head.out": 1})

    def test_negative_degree_rejected(self):
        g = build_toy_head(small_cfg())
        with pytest.raises(InvalidConfig):
            plan_prune_layers(g, {"head.conv1": -1})

    def test_no_prunable_convs_under_prefix_rejected(self):
        g = LayerGraph((3, 4, 4), [])
        with pytest.raises(InconsistentPlan):
            plan_prune(g, PruneConfig(d_head=1))

    def test_config_validation(self):
        with pytest.raises(InvalidConfig):
            PruneConfig(target="backbone")
        with pytest.raises(InvalidConfig):
            PruneConfig(d_head=-1)

    @pytest.mark.parametrize("target", ["head", "pnp", ""])
    def test_target_other_than_both_rejected(self, target):
        with pytest.raises(InvalidConfig, match="the degrees pick the modules"):
            PruneConfig(target=target, d_head=1)

    @pytest.mark.parametrize("degrees, touched", [
        (dict(d_head=1), ("head.",)), (dict(d_pnp=1), ("pnp.",)), (dict(d_head=1, d_pnp=1), ("head.", "pnp.")),
    ])
    def test_zero_degree_leaves_its_module_alone(self, degrees, touched):
        g = build_toy_gdrn(small_cfg(pnp_width=12))
        plan = plan_prune(g, PruneConfig(**degrees))
        expected = {conv.name for conv, _ in find_prunable(g, prefixes=touched)}
        assert set(plan.removed) == expected
        assert plan.removed == plan_prune(g, PruneConfig(target="both", **degrees)).removed

    def test_module_table_matches_the_toy_network(self):
        # find_prunable's default covers the table's modules, each of whose
        # convs feeds norms of the table's group size
        g = build_toy_gdrn(small_cfg())
        by_module = [find_prunable(g, prefixes=(prefix,)) for prefix, _, _ in PRUNABLE_MODULES]
        assert find_prunable(g) == [pair for pairs in by_module for pair in pairs]
        for (_, key, group), pairs in zip(PRUNABLE_MODULES, by_module):
            assert getattr(PruneConfig(**{key: 1}), key) == 1
            assert {gsize for _, gsize in pairs} == {group}


class TestPlanDocument:
    def test_roundtrip(self):
        plan = PrunePlan({"head.conv1": tuple(range(8, 16)), "pnp.conv2": (0, 1, 2, 3)})
        again = PrunePlan.from_dict(plan.to_dict())
        assert again.removed == plan.removed

    def test_channels_are_sorted_and_deduplicated(self):
        plan = PrunePlan({"a": (3, 1, 3)})
        assert plan.removed["a"] == (1, 3)

    def test_empty_channel_lists_are_dropped(self):
        assert PrunePlan({"a": ()}).removed == {}

    def test_negative_channel_rejected(self):
        with pytest.raises(InconsistentPlan):
            PrunePlan({"a": (-1, 2)})

    def test_wrong_document_format_rejected(self):
        doc = PrunePlan({"a": (0, 1)}).to_dict()
        doc["format"] = "other"
        with pytest.raises(InconsistentPlan):
            PrunePlan.from_dict(doc)

    def test_wrong_removed_type_rejected(self):
        doc = PrunePlan({}).to_dict()
        doc["removed"] = [1, 2]
        with pytest.raises(InconsistentPlan):
            PrunePlan.from_dict(doc)


class TestApply:
    @pytest.mark.parametrize("shape, axis", [((12,), 0), ((6, 12, 3, 3), 1), ((12, 5, 3, 3), 0), ((4, 12), 1)])
    def test_delete_matches_np_delete(self, shape, axis):
        a = np.random.default_rng(2).standard_normal(shape).astype(np.float32)
        removed = np.array([0, 3, 4, 5, 11], dtype=np.int64)
        want = np.delete(a, removed, axis=axis)
        got = _delete(a, removed, axis=axis)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_empty_plan_preserves_graph_bitwise(self):
        g = build_toy_gdrn(small_cfg(seed=4))
        pruned = apply_prune(g, PrunePlan({}))
        for name, params in g.params().items():
            for key, arr in params.items():
                np.testing.assert_array_equal(arr, pruned.params()[name][key])
        x = np.random.default_rng(0).standard_normal((3, 64, 64)).astype(np.float32)
        np.testing.assert_array_equal(g.forward(x), pruned.forward(x))

    def test_pruned_forward_matches_zeroed_reference(self):
        g = build_toy_gdrn(small_cfg(seed=7))
        plan = plan_prune(g, PruneConfig(d_head=1, d_pnp=1))
        pruned = apply_prune(g, plan)
        ref = zero_path_reference(g, plan)
        gen = np.random.default_rng(11)
        for _ in range(3):
            x = gen.standard_normal((3, 64, 64)).astype(np.float32)
            np.testing.assert_allclose(pruned.forward(x), ref.forward(x), atol=1e-6)

    def test_apply_does_not_mutate_original(self):
        g = build_toy_gdrn(small_cfg(seed=7))
        before = {
            name: {k: v.copy() for k, v in params.items()}
            for name, params in g.params().items()
        }
        apply_prune(g, plan_prune(g, PruneConfig(d_head=1)))
        for name, params in g.params().items():
            for key, arr in params.items():
                np.testing.assert_array_equal(arr, before[name][key])

    @pytest.mark.parametrize("config", [PruneConfig(), PruneConfig(d_head=1, d_pnp=1)],
                             ids=["empty-plan", "both"])
    def test_pruned_graph_shares_no_parameter_memory(self, config):
        g = build_toy_gdrn(small_cfg(seed=7))
        pruned = apply_prune(g, plan_prune(g, config))
        originals = [arr for params in g.params().values() for arr in params.values()]
        for name, params in pruned.params().items():
            for key, arr in params.items():
                assert arr.flags.c_contiguous, (name, key)
                assert not any(np.shares_memory(arr, orig) for orig in originals), (name, key)

    def test_pruned_counts_match_network_built_at_degree(self):
        base = build_toy_gdrn(small_cfg(head_width=32, seed=1))
        plan = plan_prune(base, PruneConfig(d_head=1, d_pnp=1))
        pruned = apply_prune(base, plan)
        rebuilt = build_toy_gdrn(small_cfg(head_width=32, d_head=1, d_pnp=1))
        assert count_flops(pruned).total_macs == count_flops(rebuilt).total_macs
        assert count_params(pruned) == count_params(rebuilt)

    def test_meta_config_tracks_degrees(self):
        g = build_toy_gdrn(small_cfg(head_width=32))
        plan = plan_prune(g, PruneConfig(d_head=1, d_pnp=1))
        tc = apply_prune(g, plan).meta["toy_config"]
        assert tc["d_head"] == 1
        assert tc["d_pnp"] == 1
        ToyConfig.from_dict(tc)

    @pytest.mark.parametrize("degrees", [
        {"head.conv1": 1},
        {"head.conv1": 1, "head.conv2": 1, "head.conv3": 2},
        {"backbone.conv1": 1},
    ], ids=["one-head-conv", "uneven-head", "backbone"])
    def test_meta_config_dropped_when_no_toy_config_fits(self, degrees):
        g = build_toy_gdrn(small_cfg(backbone_width=16, head_width=32))
        assert "toy_config" not in apply_prune(g, plan_prune_layers(g, degrees)).meta

    def test_partial_group_rejected(self):
        g = build_toy_head(small_cfg())
        with pytest.raises(InconsistentPlan):
            apply_prune(g, PrunePlan({"head.conv1": (0, 1, 2, 3)}))

    def test_channel_out_of_range_rejected(self):
        g = build_toy_head(small_cfg())
        with pytest.raises(InconsistentPlan):
            apply_prune(g, PrunePlan({"head.conv1": tuple(range(16, 24))}))

    def test_unknown_layer_in_plan_rejected(self):
        g = build_toy_head(small_cfg())
        with pytest.raises(InconsistentPlan):
            apply_prune(g, PrunePlan({"backbone.conv9": (0, 1, 2, 3, 4, 5, 6, 7)}))

    def test_removing_every_group_rejected(self):
        g = build_toy_head(small_cfg())
        with pytest.raises(TooAggressive):
            apply_prune(g, PrunePlan({"head.conv1": tuple(range(16))}))
