"""Neural engine tests: layer math, analytic gradients, operation counts,
the toy pose network builders, and on-disk serialization."""

import json

import numpy as np
import pytest

from fastpose.errors import (
    InvalidConfig,
    SchemaViolation,
    ShapeMismatch,
    UnsupportedFormat,
)
from fastpose.net import (
    ConcatChannels,
    Conv2D,
    Dense,
    Flatten,
    GroupNorm,
    HeadLayout,
    Layer,
    LayerGraph,
    ReLU,
    ToyConfig,
    Upsample2xNearest,
    build_toy_gdrn,
    build_toy_head,
    count_flops,
    count_params,
    gradients_congruent,
    load_model,
    save_model,
    zero_gradients,
)

from fastpose import rng
from fastpose.net import toy
from fastpose.net.layers import LAYER_KINDS
from fastpose.prune import PruneConfig, apply_prune, plan_prune

import oracles
from conftest import all_kinds_graph, peak_traced_bytes


def identity_conv(channels: int) -> np.ndarray:
    w = np.zeros((channels, channels, 1, 1), dtype=np.float32)
    for c in range(channels):
        w[c, c, 0, 0] = 1.0
    return w


def single_layer(layer, input_shape) -> LayerGraph:
    return LayerGraph(input_shape, [layer])


class TestLayerForward:
    def test_identity_conv_passes_input_through(self):
        g = single_layer(
            Conv2D("c", ["@input"], identity_conv(3), np.zeros(3, np.float32)),
            (3, 5, 4),
        )
        x = np.random.default_rng(0).standard_normal((3, 5, 4)).astype(np.float32)
        np.testing.assert_array_equal(g.forward(x), x)

    def test_padded_conv_hand_example(self):
        # 2x2 input, all-ones 3x3 kernel, pad 1: every window covers the
        # whole input, so each output equals the input sum.
        x = np.array([[[1.0, 2.0], [3.0, 4.0]]], dtype=np.float32)
        w = np.ones((1, 1, 3, 3), dtype=np.float32)
        g = single_layer(
            Conv2D("c", ["@input"], w, np.zeros(1, np.float32), padding=1), (1, 2, 2)
        )
        np.testing.assert_array_equal(g.forward(x), np.full((1, 2, 2), 10.0))

    def test_conv_stride_two_shape(self):
        w = np.ones((2, 1, 3, 3), dtype=np.float32)
        g = single_layer(
            Conv2D("c", ["@input"], w, np.zeros(2, np.float32), stride=2, padding=1),
            (1, 8, 8),
        )
        assert g.forward(np.ones((1, 8, 8), np.float32)).shape == (2, 4, 4)

    def test_groupnorm_constant_input_maps_to_zero(self):
        g = single_layer(
            GroupNorm(
                "n",
                ["@input"],
                np.ones(4, np.float32),
                np.zeros(4, np.float32),
                group_size=2,
            ),
            (4, 3, 3),
        )
        y = g.forward(np.full((4, 3, 3), 7.5, dtype=np.float32))
        assert np.abs(y).max() < 1e-3

    def test_groupnorm_affine_input_invariance(self):
        # Per-group standardization cancels a global affine map of the input
        # up to the epsilon in the variance (about eps/2 relative here).
        gn = GroupNorm(
            "n",
            ["@input"],
            np.ones(4, np.float32),
            np.zeros(4, np.float32),
            group_size=4,
        )
        g = single_layer(gn, (4, 6, 6))
        x = np.random.default_rng(3).standard_normal((4, 6, 6)).astype(np.float32)
        np.testing.assert_allclose(g.forward(3.0 * x + 7.0), g.forward(x), atol=5e-5)

    def test_groupnorm_gamma_beta_apply(self):
        gamma = np.array([2.0, 3.0], dtype=np.float32)
        beta = np.array([10.0, -10.0], dtype=np.float32)
        g = single_layer(
            GroupNorm("n", ["@input"], gamma, beta, group_size=1), (2, 4, 4)
        )
        y = g.forward(np.full((2, 4, 4), 5.0, dtype=np.float32))
        # Constant input: normalized value is 0, so out == beta per channel.
        np.testing.assert_allclose(y[0], 10.0, atol=1e-3)
        np.testing.assert_allclose(y[1], -10.0, atol=1e-3)

    def test_relu_clamps_negatives(self):
        g = single_layer(ReLU("r", ["@input"]), (1, 2, 2))
        x = np.array([[[-1.0, 2.0], [0.0, -3.5]]], dtype=np.float32)
        np.testing.assert_array_equal(
            g.forward(x), np.array([[[0.0, 2.0], [0.0, 0.0]]], dtype=np.float32)
        )

    def test_upsample_duplicates_each_pixel(self):
        g = single_layer(Upsample2xNearest("u", ["@input"]), (2, 3, 4))
        x = np.random.default_rng(1).standard_normal((2, 3, 4)).astype(np.float32)
        y = g.forward(x)
        assert y.shape == (2, 6, 8)
        for di in (0, 1):
            for dj in (0, 1):
                np.testing.assert_array_equal(y[:, di::2, dj::2], x)

    def test_flatten_matches_ravel(self):
        g = single_layer(Flatten("f", ["@input"]), (2, 3, 4))
        x = np.random.default_rng(2).standard_normal((2, 3, 4)).astype(np.float32)
        y = g.forward(x)
        assert y.shape == (24,)
        np.testing.assert_array_equal(y, x.ravel())

    def test_dense_matches_matmul(self):
        w = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 1.0]], dtype=np.float32)
        b = np.array([0.5, -0.5], dtype=np.float32)
        g = LayerGraph(
            (1, 1, 3),
            [Flatten("f", ["@input"]), Dense("d", ["f"], w, b)],
        )
        x = np.array([[[1.0, 1.0, 2.0]]], dtype=np.float32)
        np.testing.assert_allclose(g.forward(x), w @ x.ravel() + b)

    def test_concat_selects_ranges(self):
        cat = ConcatChannels("c", ["a", "a"], ranges=[(0, 2), None])
        g = LayerGraph((3, 2, 2), [ReLU("a", ["@input"]), cat])
        x = np.arange(12, dtype=np.float32).reshape(3, 2, 2)
        y = g.forward(x)
        assert y.shape == (5, 2, 2)
        np.testing.assert_array_equal(y[:2], x[:2])
        np.testing.assert_array_equal(y[2:], x)

    def test_concat_range_out_of_bounds(self):
        # Shape inference runs at construction, so the bad range is caught
        # before any forward pass.
        cat = ConcatChannels("c", ["a"], ranges=[(1, 9)])
        with pytest.raises(ShapeMismatch):
            LayerGraph((3, 2, 2), [ReLU("a", ["@input"]), cat])

    def test_concat_decreasing_range(self):
        cat = ConcatChannels("c", ["a"], ranges=[(2, 1)])
        with pytest.raises(ShapeMismatch):
            LayerGraph((3, 2, 2), [ReLU("a", ["@input"]), cat])


class TestGraphStructure:
    def test_empty_graph_is_identity(self):
        g = LayerGraph((2, 3, 3), [])
        assert g.output == "@input"
        assert count_params(g) == 0
        x = np.random.default_rng(0).standard_normal((2, 3, 3)).astype(np.float32)
        np.testing.assert_array_equal(g.forward(x), x)

    def test_duplicate_layer_name_rejected(self):
        with pytest.raises(ShapeMismatch):
            LayerGraph((1, 4, 4), [ReLU("a", ["@input"]), ReLU("a", ["a"])])

    def test_undefined_input_rejected(self):
        with pytest.raises(ShapeMismatch):
            LayerGraph((1, 4, 4), [ReLU("a", ["missing"])])

    def test_forward_reference_rejected(self):
        # Layers must appear in topological order.
        with pytest.raises(ShapeMismatch):
            LayerGraph((1, 4, 4), [ReLU("a", ["b"]), ReLU("b", ["@input"])])

    def test_unknown_output_rejected(self):
        with pytest.raises(ShapeMismatch):
            LayerGraph((1, 4, 4), [ReLU("a", ["@input"])], output="zz")

    def test_output_that_is_not_a_layer_name_rejected(self):
        with pytest.raises(ShapeMismatch):
            LayerGraph((1, 4, 4), [ReLU("a", ["@input"])], output=["a"])

    @pytest.mark.parametrize("make", [
        lambda: Conv2D("c", ["@input"], np.zeros((2, 1, 3, 3)), np.zeros(2), stride=0),
        lambda: Conv2D("c", ["@input"], np.zeros((2, 1, 3, 3)), np.zeros(2), padding=-1),
        lambda: GroupNorm("g", ["@input"], np.ones(4), np.zeros(4), group_size=0),
        lambda: GroupNorm("g", ["@input"], np.ones(4), np.zeros(4), group_size=-2),
        lambda: GroupNorm("g", ["@input"], np.ones(4), np.zeros(4), group_size=2, eps=float("nan")),
        lambda: GroupNorm("g", ["@input"], np.ones(4), np.zeros(4), group_size=2, eps=float("inf")),
        lambda: GroupNorm("g", ["@input"], np.ones(4), np.zeros(4), group_size=2, eps=float("-inf")),
        lambda: GroupNorm("g", ["@input"], np.ones(4), np.zeros(4), group_size=2, eps=0.0),
        lambda: GroupNorm("g", ["@input"], np.ones(4), np.zeros(4), group_size=2, eps=-1e-5),
    ], ids=["conv-stride-0", "conv-padding-negative", "norm-group-size-0", "norm-group-size-negative",
            "norm-eps-nan", "norm-eps-infinity", "norm-eps-minus-infinity", "norm-eps-0", "norm-eps-negative"])
    def test_layer_constructor_rejects_a_degenerate_stride_padding_or_group(self, make):
        with pytest.raises(ShapeMismatch):
            make()

    def test_forward_rejects_wrong_input_shape(self):
        g = LayerGraph((1, 4, 4), [ReLU("a", ["@input"])])
        with pytest.raises(ShapeMismatch):
            g.forward(np.zeros((2, 4, 4), np.float32))

    def test_record_returns_the_output_and_a_tape(self):
        g = LayerGraph(
            (1, 2, 2), [ReLU("a", ["@input"]), Flatten("f", ["a"])]
        )
        x = np.ones((1, 2, 2), np.float32)
        y, tape = g.forward(x, record=True)
        assert set(tape) == {"@input", "a", "f"}
        np.testing.assert_array_equal(y, g.forward(x))


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        w = np.random.default_rng(4).standard_normal((2, 2, 3, 3)).astype(np.float32)
        g = LayerGraph(
            (2, 4, 4),
            [
                Conv2D("c", ["@input"], w, np.zeros(2, np.float32), padding=1),
                ReLU("r", ["c"]),
            ],
        )
        x = np.random.default_rng(5).standard_normal((2, 4, 4)).astype(np.float32)
        grads, gx = g.backward(g.forward(x, record=True)[1], np.zeros((2, 4, 4), np.float32))
        assert np.abs(gx).max() == 0.0
        for by_key in grads.values():
            for arr in by_key.values():
                assert np.abs(arr).max() == 0.0

    def test_dense_weight_gradient_is_input(self):
        g = LayerGraph(
            (1, 1, 1),
            [
                Flatten("f", ["@input"]),
                Dense(
                    "d",
                    ["f"],
                    np.array([[2.0]], dtype=np.float32),
                    np.zeros(1, np.float32),
                ),
            ],
        )
        x = np.full((1, 1, 1), 3.0, dtype=np.float32)
        grads, gx = g.backward(g.forward(x, record=True)[1], np.ones(1, np.float32))
        np.testing.assert_allclose(grads["d"]["weight"], [[3.0]])
        np.testing.assert_allclose(grads["d"]["bias"], [1.0])
        np.testing.assert_allclose(gx.ravel(), [2.0])

    def test_concat_routes_gradient_to_selected_channels(self):
        cat = ConcatChannels("c", ["a"], ranges=[(1, 2)])
        g = LayerGraph((3, 2, 2), [ReLU("a", ["@input"]), cat])
        x = np.ones((3, 2, 2), np.float32)
        _, gx = g.backward(g.forward(x, record=True)[1], np.ones((1, 2, 2), np.float32))
        np.testing.assert_array_equal(gx[0], 0.0)
        np.testing.assert_array_equal(gx[1], 1.0)
        np.testing.assert_array_equal(gx[2], 0.0)

    def test_layer_off_the_output_path_gets_zero_gradients(self):
        gen = np.random.default_rng(6)
        w = gen.standard_normal((2, 2, 3, 3)).astype(np.float32)
        dead_w = gen.standard_normal((3, 2, 1, 1)).astype(np.float32)
        live = [Conv2D("c", ["@input"], w, np.zeros(2, np.float32), padding=1), ReLU("r", ["c"])]
        dead = Conv2D("dead", ["c"], dead_w, np.ones(3, np.float32))
        g = LayerGraph((2, 4, 4), live[:1] + [dead] + live[1:], output="r")
        x = gen.standard_normal((2, 4, 4)).astype(np.float32)
        upstream = gen.standard_normal((2, 4, 4)).astype(np.float32)
        grads, gx = g.backward(g.forward(x, record=True)[1], upstream)
        for key, arr in grads["dead"].items():
            assert arr.dtype == np.float32 and not arr.any(), key
        ref = LayerGraph((2, 4, 4), live)
        ref_grads, ref_gx = ref.backward(ref.forward(x, record=True)[1], upstream)
        np.testing.assert_array_equal(gx, ref_gx)
        for key, arr in ref_grads["c"].items():
            np.testing.assert_array_equal(grads["c"][key], arr)

    def test_unused_input_gets_a_zero_gradient_of_its_dtype(self):
        class Constant(Layer):
            kind = "constant"

            def out_shape(self, in_shapes):
                return (2,)

            def forward(self, xs):
                return np.ones(2), None

            def backward(self, gy, cache):
                return [], {}

        g = LayerGraph((3,), [Constant("k", [])])
        _, tape = g.forward(np.ones(3, np.float32), record=True)
        _, gx = g.backward(tape, np.ones(2))
        assert gx.dtype == np.float32 and gx.shape == (3,) and not gx.any()

    def test_upstream_must_match_the_output_shape(self):
        g = LayerGraph((1, 2, 2), [ReLU("a", ["@input"]), Flatten("f", ["a"])])
        _, tape = g.forward(np.ones((1, 2, 2), np.float32), record=True)
        with pytest.raises(ShapeMismatch):
            g.backward(tape, np.ones((1, 2, 2), np.float32))

    def test_gradients_congruent_accepts_zero_template(self):
        g = build_toy_head(ToyConfig(backbone_width=8, head_width=16, pnp_width=8, regions=4))
        assert gradients_congruent(g, zero_gradients(g))

    def test_gradients_congruent_accepts_subset(self):
        g = build_toy_head(ToyConfig(backbone_width=8, head_width=16, pnp_width=8, regions=4))
        grads = zero_gradients(g)
        grads.pop(next(iter(grads)))
        assert gradients_congruent(g, grads)

    def test_gradients_congruent_rejects_unknown_layer(self):
        g = build_toy_head(ToyConfig(backbone_width=8, head_width=16, pnp_width=8, regions=4))
        grads = zero_gradients(g)
        grads["nonexistent"] = {"weight": np.zeros(1, np.float32)}
        assert not gradients_congruent(g, grads)

    def test_gradients_congruent_rejects_unknown_param(self):
        g = build_toy_head(ToyConfig(backbone_width=8, head_width=16, pnp_width=8, regions=4))
        grads = zero_gradients(g)
        name = next(iter(grads))
        grads[name]["extra"] = np.zeros(1, np.float32)
        assert not gradients_congruent(g, grads)

    def test_gradients_congruent_rejects_wrong_shape(self):
        g = build_toy_head(ToyConfig(backbone_width=8, head_width=16, pnp_width=8, regions=4))
        grads = zero_gradients(g)
        name = next(iter(grads))
        key = next(iter(grads[name]))
        grads[name][key] = np.zeros((1, 1), np.float32)
        assert not gradients_congruent(g, grads)


class TestGradCheck:
    @pytest.mark.parametrize("seed", [11, 29, 47])
    def test_analytic_matches_central_differences(self, seed):
        g = all_kinds_graph(seed)
        gen = np.random.default_rng(seed + 1000)
        x = gen.standard_normal((2, 6, 6)).astype(np.float64)
        coef = gen.standard_normal(3).astype(np.float64)

        grads, gx = g.backward(g.forward(x, record=True)[1], coef)

        def sample_indices(arr, limit=20):
            flat = [np.unravel_index(i, arr.shape) for i in range(arr.size)]
            if len(flat) <= limit:
                return flat
            picks = gen.choice(arr.size, size=limit, replace=False)
            return [np.unravel_index(int(i), arr.shape) for i in picks]

        worst = 0.0
        for layer in g.layers:
            params = layer.params()
            for key, arr in params.items():

                def loss_fn(_=None):
                    return float(np.dot(g.forward(x), coef))

                for idx in sample_indices(arr):
                    numeric = oracles.central_difference(loss_fn, arr, idx)
                    analytic = float(grads[layer.name][key][idx])
                    worst = max(worst, oracles.gradcheck_rel_err(analytic, numeric))

        def input_loss(_=None):
            return float(np.dot(g.forward(x), coef))

        for idx in sample_indices(x, limit=10):
            numeric = oracles.central_difference(input_loss, x, idx)
            worst = max(worst, oracles.gradcheck_rel_err(float(gx[idx]), numeric))

        assert worst <= 1e-4

    @pytest.mark.parametrize("seed", [11, 29])
    def test_float64_zero_gradients_stay_float64(self, seed):
        # a float64 layer off the output path: its zero upstream, and so its
        # parameter gradients, keep the activation dtype
        g = all_kinds_graph(seed)
        gen = np.random.default_rng(seed + 2000)
        dead = Conv2D("dead", ["relu1"], gen.standard_normal((3, 4, 1, 1)), gen.standard_normal(3))
        branched = LayerGraph(g.input_shape, g.layers[:3] + [dead] + g.layers[3:], output="dense")
        x = gen.standard_normal((2, 6, 6))
        coef = gen.standard_normal(3)
        grads, gx = branched.backward(branched.forward(x, record=True)[1], coef)
        ref_grads, ref_gx = g.backward(g.forward(x, record=True)[1], coef)
        assert gx.dtype == np.float64
        np.testing.assert_array_equal(gx, ref_gx)
        for key, arr in grads.pop("dead").items():
            assert arr.dtype == np.float64 and not arr.any(), key
        assert grads.keys() == ref_grads.keys()
        for name, by_key in ref_grads.items():
            for key, arr in by_key.items():
                assert grads[name][key].dtype == np.float64
                np.testing.assert_array_equal(grads[name][key], arr)


def upsample_conv(name, src, gen, cin, cout, dtype=np.float64, kernel=3, stride=1, padding=1):
    """[Upsample2xNearest name.up <- src, Conv2D name <- name.up]."""
    w = (0.5 * gen.standard_normal((cout, cin, kernel, kernel))).astype(dtype)
    b = (0.5 * gen.standard_normal(cout)).astype(dtype)
    return [Upsample2xNearest(f"{name}.up", [src]), Conv2D(name, [f"{name}.up"], w, b, stride, padding)]


def assert_runs_like_unfused(g, x, upstream, rtol=0.0):
    """Forward and backward of g against oracles.unfused_run: byte for byte
    with rtol=0, else to rtol relative to each array's largest magnitude."""
    (y, tape), (ref_y, ref_grads, ref_gx) = g.forward(x, record=True), oracles.unfused_run(g, x, upstream)
    grads, gx = g.backward(tape, upstream)
    pairs = [("output", y, ref_y), ("input grad", gx, ref_gx)]
    assert grads.keys() == ref_grads.keys()
    for name, by_key in ref_grads.items():
        assert grads[name].keys() == by_key.keys()
        pairs += [(f"{name}.{key}", grads[name][key], arr) for key, arr in by_key.items()]
    for what, got, ref in pairs:
        assert got.dtype == ref.dtype and got.shape == ref.shape, what
        if rtol == 0.0:
            assert got.tobytes() == ref.tobytes(), what
        else:
            assert np.abs(got - ref).max() <= rtol * np.abs(ref).max(), what


class TestUpsampleConvFusion:
    """A nearest 2x upsample read only by a 3x3, stride-1, padding-1 conv runs
    as four 2x2 sub-pixel convs on the low-resolution input."""

    def chained(self, seed, cin, cout, h, w):
        # up -> conv -> GroupNorm -> ReLU -> up -> conv -> dense: two fused pairs, the first on the graph input
        gen = np.random.default_rng(seed)
        layers = upsample_conv("conv1", "@input", gen, cin, 4)
        layers += [
            GroupNorm("gn1", ["conv1"], 1.0 + 0.1 * gen.standard_normal(4), 0.1 * gen.standard_normal(4), group_size=2),
            ReLU("relu1", ["gn1"]),
        ]
        layers += upsample_conv("conv2", "relu1", gen, 4, cout)
        layers += [
            Flatten("flat", ["conv2"]),
            Dense("dense", ["flat"], 0.5 * gen.standard_normal((3, cout * 16 * h * w)), gen.standard_normal(3)),
        ]
        return LayerGraph((cin, h, w), layers)

    @pytest.mark.parametrize("cin, cout, h, w", [(3, 5, 2, 3), (2, 4, 1, 1), (5, 2, 3, 1)])
    def test_float64_gradients_match_central_differences_and_the_unfused_oracle(
        self, layer_forward_calls, cin, cout, h, w
    ):
        g = self.chained(100 + h, cin, cout, h, w)
        gen = np.random.default_rng(200 + h)
        x = gen.standard_normal((cin, h, w))
        coef = gen.standard_normal(3)
        grads, gx = g.backward(g.forward(x, record=True)[1], coef)
        assert layer_forward_calls[g.layer("conv1.up")] == layer_forward_calls[g.layer("conv2.up")] == 0

        def loss():
            return float(np.dot(g.forward(x), coef))

        worst = 0.0
        for layer in g.layers:
            for key, arr in layer.params().items():
                for flat in gen.choice(arr.size, size=min(arr.size, 20), replace=False):
                    idx = np.unravel_index(int(flat), arr.shape)
                    numeric = oracles.central_difference(loss, arr, idx)
                    worst = max(worst, oracles.gradcheck_rel_err(float(grads[layer.name][key][idx]), numeric))
        for flat in range(x.size):
            idx = np.unravel_index(flat, x.shape)
            worst = max(worst, oracles.gradcheck_rel_err(float(gx[idx]), oracles.central_difference(loss, x, idx)))
        assert worst <= 1e-4
        assert_runs_like_unfused(g, x, coef, rtol=1e-12)

    def test_float32_pair_matches_the_unfused_oracle(self, layer_forward_calls):
        gen = np.random.default_rng(31)
        g = LayerGraph((16, 5, 7), upsample_conv("conv", "@input", gen, 16, 24, dtype=np.float32))
        x = gen.standard_normal(g.input_shape).astype(np.float32)
        upstream = gen.standard_normal(g.output_shape).astype(np.float32)
        assert_runs_like_unfused(g, x, upstream, rtol=1e-5)
        assert layer_forward_calls[g.layer("conv.up")] == 0

    def test_pruned_default_config_recorded_forward_is_the_plain_forward(self, layer_forward_calls):
        full = build_toy_gdrn(ToyConfig())
        g = apply_prune(full, plan_prune(full, PruneConfig(d_head=16, d_pnp=16)))
        x = np.random.default_rng(2).standard_normal(g.input_shape).astype(np.float32)
        y, _ = g.forward(x, record=True)
        assert y.tobytes() == g.forward(x).tobytes()
        assert all(layer_forward_calls[g.layer(f"head.up{i}")] == 0 for i in (1, 2, 3))

    @pytest.mark.parametrize("case", ["two consumers", "stride 2", "1x1", "padding 0", "upsample is the output"])
    def test_unfused_cases_run_exactly_as_declared(self, layer_forward_calls, case):
        gen = np.random.default_rng(41)
        conv = {"stride 2": dict(stride=2), "1x1": dict(kernel=1, padding=0), "padding 0": dict(padding=0)}
        layers = upsample_conv("conv", "@input", gen, 3, 4, **conv.get(case, {}))
        output = None
        if case == "two consumers":
            layers += [ReLU("side", ["conv.up"]), ConcatChannels("cat", ["conv", "side"])]
        elif case == "upsample is the output":
            output = "conv.up"
        g = LayerGraph((3, 4, 5), layers, output=output)
        x = gen.standard_normal(g.input_shape)
        assert_runs_like_unfused(g, x, gen.standard_normal(g.output_shape))
        assert layer_forward_calls[g.layer("conv.up")] == 1

    def test_graph_sharing_layers_with_a_fused_graph(self, layer_forward_calls):
        gen = np.random.default_rng(43)
        fused = LayerGraph((3, 4, 5), upsample_conv("conv", "@input", gen, 3, 4))
        x = gen.standard_normal(fused.input_shape)
        before = fused.forward(x).tobytes()
        # the same layer objects, with a second reader of the upsample: not fused here
        shared = LayerGraph(fused.input_shape, fused.layers + [ReLU("side", ["conv.up"])], output="conv")
        assert_runs_like_unfused(shared, x, gen.standard_normal(shared.output_shape))
        assert layer_forward_calls[shared.layer("conv.up")] == 1
        assert fused.forward(x).tobytes() == before
        assert layer_forward_calls[shared.layer("conv.up")] == 1
        assert_runs_like_unfused(fused, x, gen.standard_normal(fused.output_shape), rtol=1e-12)

    def test_upsample_input_stays_alive_until_the_fused_conv(self, layer_forward_calls):
        # "relu" is read by the upsample, by "mid" before the conv, and by nothing after
        gen = np.random.default_rng(47)
        up, conv = upsample_conv("conv", "relu", gen, 2, 3)
        layers = [ReLU("relu", ["@input"]), up, ReLU("mid", ["relu"]), conv]
        layers += [Upsample2xNearest("mid.up", ["mid"]), ConcatChannels("cat", ["conv", "mid.up"])]
        g = LayerGraph((2, 3, 4), layers)
        x = gen.standard_normal(g.input_shape)
        assert_runs_like_unfused(g, x, gen.standard_normal(g.output_shape), rtol=1e-12)
        assert layer_forward_calls[g.layer("conv.up")] == 0

    def test_count_flops_counts_the_declared_network(self):
        g = LayerGraph((3, 4, 5), upsample_conv("conv", "@input", np.random.default_rng(0), 3, 4))
        assert count_flops(g).per_layer == {"conv.up": (0, 3 * 8 * 10), "conv": (4 * 3 * 9 * 8 * 10, 0)}


class TestFlopCounts:
    def make_conv_graph(self, c_out):
        w = np.ones((c_out, 2, 3, 3), dtype=np.float32)
        return single_layer(
            Conv2D("c", ["@input"], w, np.zeros(c_out, np.float32), padding=1),
            (2, 4, 4),
        )

    def test_conv_hand_count(self):
        counts = count_flops(self.make_conv_graph(3))
        assert counts.per_layer["c"][0] == 864
        assert counts.total_macs == 864
        assert counts.total_macs == oracles.conv_macs_reference(3, 2, 3, 4, 4)

    def test_removing_one_filter_drops_288_macs(self):
        assert count_flops(self.make_conv_graph(3)).total_macs - count_flops(
            self.make_conv_graph(2)
        ).total_macs == 288

    def test_pointwise_conv_count(self):
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        g = single_layer(
            Conv2D("c", ["@input"], w, np.zeros(1, np.float32)), (1, 8, 8)
        )
        assert count_flops(g).total_macs == 64

    def test_dense_count(self):
        g = LayerGraph(
            (1, 4, 5),
            [
                Flatten("f", ["@input"]),
                Dense("d", ["f"], np.ones((8, 20), np.float32), np.zeros(8, np.float32)),
            ],
        )
        counts = count_flops(g)
        assert counts.per_layer["d"][0] == 160
        assert counts.per_layer["d"][0] == oracles.dense_macs_reference(8, 20)

    def test_totals_are_sums_of_per_layer(self):
        g = build_toy_gdrn(ToyConfig(backbone_width=8, head_width=16, pnp_width=8, regions=4))
        counts = count_flops(g)
        assert counts.total_macs == sum(m for m, _ in counts.per_layer.values())
        assert counts.total_elementwise == sum(e for _, e in counts.per_layer.values())

    @pytest.mark.parametrize(
        "cfg",
        [
            ToyConfig(backbone_width=8, head_width=16, pnp_width=8, regions=4),
            ToyConfig(backbone_width=16, head_width=24, pnp_width=12, regions=6, d_head=1),
            ToyConfig(backbone_width=8, head_width=32, pnp_width=16, regions=3, d_head=2, d_pnp=1),
        ],
    )
    def test_toy_graphs_match_loop_oracle(self, cfg):
        g = build_toy_gdrn(cfg)
        assert count_flops(g).total_macs == oracles.graph_macs_reference(g)

    def test_all_kinds_graph_matches_loop_oracle(self):
        g = all_kinds_graph(7)
        assert count_flops(g).total_macs == oracles.graph_macs_reference(g)


class TestParamProtocol:
    @pytest.mark.parametrize("kind", sorted(LAYER_KINDS))
    def test_params_are_the_declared_attributes_in_order(self, kind):
        layer = next(l for l in all_kinds_graph(7).layers if l.kind == kind)
        params = layer.params()
        assert list(params) == list(LAYER_KINDS[kind].param_names)
        assert all(params[k] is getattr(layer, k) for k in params)

    @pytest.mark.parametrize("kind", sorted(LAYER_KINDS))
    def test_set_param_rejects_an_undeclared_key(self, kind):
        layer = next(l for l in all_kinds_graph(7).layers if l.kind == kind)
        with pytest.raises(KeyError):
            layer.set_param("scale", np.zeros(1))
        assert not hasattr(layer, "scale")


class TestParamCounts:
    def test_conv_params_hand_count(self):
        w = np.ones((3, 2, 3, 3), dtype=np.float32)
        g = single_layer(
            Conv2D("c", ["@input"], w, np.zeros(3, np.float32), padding=1), (2, 4, 4)
        )
        assert count_params(g) == 57

    def test_empty_graph_has_no_params(self):
        assert count_params(LayerGraph((1, 2, 2), [])) == 0

    def test_toy_graph_matches_loop_oracle(self):
        g = build_toy_gdrn(ToyConfig(backbone_width=8, head_width=16, pnp_width=8, regions=4))
        assert count_params(g) == oracles.params_reference(g)


class TestToyNetwork:
    def small(self, **kw) -> ToyConfig:
        base = dict(backbone_width=8, head_width=16, pnp_width=8, regions=4)
        base.update(kw)
        return ToyConfig(**base)

    def test_full_network_shapes(self):
        g = build_toy_gdrn(self.small())
        assert g.input_shape == (3, 64, 64)
        assert g.output == "pnp.out"
        y = g.forward(np.zeros((3, 64, 64), np.float32))
        assert y.shape == (9,)

    def test_chunked_weight_init_is_one_uniform_draw(self):
        shape, fan_in = (3, toy._INIT_CHUNK + 5), 7
        bound = 1.0 / np.sqrt(fan_in)
        want = rng.derive(3, "w").uniform(-bound, bound, size=shape).astype(np.float32)
        assert toy._uniform(rng.derive(3, "w"), shape, fan_in).tobytes() == want.tobytes()

    def test_default_config_memory(self):
        # forward drops each activation after its last consumer; backward keeps
        # conv inputs, not their k*k times larger im2col columns
        g = build_toy_gdrn(ToyConfig())
        x = np.random.default_rng(0).standard_normal(g.input_shape).astype(np.float32)
        upstream = np.ones(g.output_shape, np.float32)
        assert peak_traced_bytes(lambda: g.forward(x)) <= 56 * 2**20
        assert peak_traced_bytes(lambda: g.backward(g.forward(x, record=True)[1], upstream)) <= 100 * 2**20

    def test_default_config_recorded_step_memory(self):
        # the tape holds the layers' caches, and the recorded forward drops
        # activations as the plain one does: measured 75.0 MiB
        g = build_toy_gdrn(ToyConfig())
        x = np.random.default_rng(0).standard_normal(g.input_shape).astype(np.float32)
        upstream = np.ones(g.output_shape, np.float32)
        assert peak_traced_bytes(lambda: g.backward(g.forward(x, record=True)[1], upstream)) <= 83 * 2**20

    def test_default_config_recorded_forward_is_the_plain_forward(self):
        g = build_toy_gdrn(ToyConfig())
        x = np.random.default_rng(1).standard_normal(g.input_shape).astype(np.float32)
        y, _ = g.forward(x, record=True)
        assert y.dtype == np.float32
        assert y.tobytes() == g.forward(x).tobytes()

    def test_head_output_channel_layout(self):
        regions = 4
        layout = HeadLayout(regions)
        assert layout.region_logits == (0, regions + 1)
        assert layout.visible_mask == (regions + 1, regions + 2)
        assert layout.amodal_mask == (regions + 2, regions + 3)
        assert layout.coordinates == (regions + 3, regions + 6)
        assert layout.total == regions + 6
        assert layout.pose_input_ranges == [(0, regions + 1), (regions + 3, regions + 6)]

    def test_pose_branch_consumes_logits_and_coordinates(self):
        g = build_toy_gdrn(self.small())
        cat = next(l for l in g.layers if l.name == "pnp.concat")
        assert cat.inputs == ["head.out", "head.out"]
        assert list(cat.ranges) == [(0, 5), (7, 10)]

    def test_default_config_concat_width(self):
        layout = HeadLayout(64)
        spans = [b - a for a, b in layout.pose_input_ranges]
        assert sum(spans) == 68

    def test_head_out_channels(self):
        g = build_toy_head(self.small())
        out = next(l for l in g.layers if l.name == "head.out")
        assert out.weight.shape[0] == 10

    def test_head_width_shrinks_with_degree(self):
        for d_head, width in [(0, 16), (1, 8)]:
            g = build_toy_head(self.small(d_head=d_head))
            conv = next(l for l in g.layers if l.name == "head.conv1")
            assert conv.weight.shape[0] == width

    def test_same_seed_reproduces_params(self):
        a = build_toy_gdrn(self.small(seed=5))
        b = build_toy_gdrn(self.small(seed=5))
        for name, params in a.params().items():
            for key, arr in params.items():
                np.testing.assert_array_equal(arr, b.params()[name][key])

    def test_different_seed_changes_params(self):
        a = build_toy_gdrn(self.small(seed=5))
        b = build_toy_gdrn(self.small(seed=6))
        diffs = sum(
            not np.array_equal(arr, b.params()[name][key])
            for name, params in a.params().items()
            for key, arr in params.items()
        )
        assert diffs > 0

    def test_meta_records_config(self):
        cfg = self.small(d_head=1, seed=3)
        g = build_toy_gdrn(cfg)
        assert set(g.meta) == {"module", "toy_config"}
        assert ToyConfig.from_dict(g.meta["toy_config"]) == cfg

    def test_config_dict_roundtrip(self):
        cfg = self.small(d_head=1, d_pnp=1, seed=9)
        assert ToyConfig.from_dict(cfg.to_dict()) == cfg

    def test_config_rejects_unknown_field(self):
        doc = self.small().to_dict()
        doc["zz"] = 1
        with pytest.raises(InvalidConfig):
            ToyConfig.from_dict(doc)

    @pytest.mark.parametrize("value", [4.7, 4.0, True, "8", None, [4]])
    def test_config_dict_values_must_be_integers(self, value):
        doc = {**self.small().to_dict(), "regions": value}
        with pytest.raises(InvalidConfig, match="'regions' must be an integer"):
            ToyConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "kw, message",
        [
            (dict(head_width=256, d_head=32), "fewer than 8 head filters"),
            (dict(d_head=-1), "degrees must be >= 0"),
            (dict(head_width=7), "head_width must be a positive multiple of 8"),
            (dict(regions=0), "regions must be >= 1"),
            (dict(pnp_width=3), "pnp_width must be a positive multiple of 4"),
            (dict(backbone_width=0), "backbone_width must be a positive multiple of 8"),
            (dict(seed=-1), "seed must be >= 0, got -1"),
        ],
    )
    def test_config_validation(self, kw, message):
        base = dict(backbone_width=8, head_width=16, pnp_width=8, regions=4)
        base.update(kw)
        with pytest.raises(InvalidConfig, match=message):
            ToyConfig(**base)


class TestModelIO:
    def small_graph(self) -> LayerGraph:
        return build_toy_head(
            ToyConfig(backbone_width=8, head_width=16, pnp_width=8, regions=4)
        )

    def test_roundtrip_preserves_params_and_forward(self, tmp_path):
        g = self.small_graph()
        save_model(g, tmp_path / "m.json")
        loaded = load_model(tmp_path / "m.json")
        assert loaded.input_shape == g.input_shape
        assert loaded.output == g.output
        assert loaded.meta == g.meta
        for name, params in g.params().items():
            for key, arr in params.items():
                np.testing.assert_array_equal(arr, loaded.params()[name][key])
        x = np.random.default_rng(0).standard_normal(g.input_shape).astype(np.float32)
        np.testing.assert_array_equal(g.forward(x), loaded.forward(x))

    def test_save_writes_manifest_and_weights_pair(self, tmp_path):
        g = self.small_graph()
        save_model(g, tmp_path / "m.json")
        assert (tmp_path / "m.json").exists()
        assert (tmp_path / "m.weights").exists()
        doc = json.loads((tmp_path / "m.json").read_text())
        assert set(doc) == {
            "format",
            "version",
            "input_shape",
            "output",
            "meta",
            "weights_file",
            "layers",
        }
        assert doc["weights_file"] == "m.weights"
        blob = (tmp_path / "m.weights").read_bytes()
        assert len(blob) == 4 * count_params(g)
        # each layer's parameters in manifest order, sorted by name, as little-endian float32
        params = [layer.params() for layer in g.layers]
        assert blob == b"".join(np.asarray(p[k], "<f4").tobytes() for p in params for k in sorted(p))

    def test_empty_graph_roundtrip(self, tmp_path):
        g = LayerGraph((2, 3, 3), [])
        save_model(g, tmp_path / "e.json")
        loaded = load_model(tmp_path / "e.json")
        assert loaded.output == "@input"
        assert count_params(loaded) == 0

    def mutated(self, tmp_path, mutate):
        save_model(self.small_graph(), tmp_path / "m.json")
        doc = json.loads((tmp_path / "m.json").read_text())
        mutate(doc)
        (tmp_path / "m.json").write_text(json.dumps(doc))
        return tmp_path / "m.json"

    def test_wrong_format_rejected(self, tmp_path):
        path = self.mutated(tmp_path, lambda d: d.update(format="other"))
        with pytest.raises(UnsupportedFormat):
            load_model(path)

    def test_wrong_version_rejected(self, tmp_path):
        path = self.mutated(tmp_path, lambda d: d.update(version=99))
        with pytest.raises(UnsupportedFormat):
            load_model(path)

    def test_unknown_layer_kind_rejected(self, tmp_path):
        def mutate(doc):
            doc["layers"][0]["kind"] = "mystery"

        with pytest.raises(UnsupportedFormat):
            load_model(self.mutated(tmp_path, mutate))

    def test_missing_key_rejected(self, tmp_path):
        path = self.mutated(tmp_path, lambda d: d.pop("weights_file"))
        with pytest.raises(SchemaViolation):
            load_model(path)

    @pytest.mark.parametrize("mutate, path", [
        (lambda d: d["layers"][0]["params"].update(weight=5), "$.layers[0].params.weight"),
        (lambda d: d["layers"].__setitem__(0, 5), "$.layers[0]"),
        (lambda d: d["layers"][0].update(params=[5]), "$.layers[0].params"),
        (lambda d: d["layers"][0].update(config="stride"), "$.layers[0].config"),
        (lambda d: d["layers"][1]["params"].pop("bias"), "$.layers[1].params"),
        (lambda d: d["layers"][2]["params"].pop("gamma"), "$.layers[2].params"),
    ], ids=["param-ref", "layer-entry", "params", "config", "conv-missing-bias", "norm-missing-gamma"])
    def test_non_object_entry_rejected(self, tmp_path, mutate, path):
        with pytest.raises(SchemaViolation) as exc:
            load_model(self.mutated(tmp_path, mutate))
        assert exc.value.path == path

    def test_truncated_weights_rejected(self, tmp_path):
        save_model(self.small_graph(), tmp_path / "m.json")
        blob = (tmp_path / "m.weights").read_bytes()
        (tmp_path / "m.weights").write_bytes(blob[:100])
        with pytest.raises(SchemaViolation):
            load_model(tmp_path / "m.json")
