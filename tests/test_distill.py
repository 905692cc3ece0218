"""Teacher-student training tests: output regression, feature alignment,
SGD, the training pass over (input, target) pairs, and the distillation /
fine-tuning loops built on it."""

import copy

import numpy as np
import pytest

from fastpose import distill
from fastpose.distill import (
    DistillConfig,
    distill_train,
    feature_align_loss,
    fine_tune,
    format_trace_csv,
    make_input_sampler,
    mse_loss,
    sgd_step,
    train,
    with_adapter,
)
from fastpose.errors import (
    EmptyInput,
    InvalidConfig,
    LengthMismatch,
    ShapeMismatch,
    TooAggressive,
)
from fastpose.net import LayerGraph, ToyConfig, build_toy_backbone, build_toy_gdrn, build_toy_head, zero_gradients
from fastpose.net.layers import GRAPH_INPUT, Conv2D, Dense, Flatten
from fastpose.prune import PruneConfig, apply_prune, plan_prune

import oracles


class TestMseLoss:
    def test_hand_computed_value_and_gradient(self):
        loss, grad = mse_loss(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        assert loss == 4.0
        np.testing.assert_allclose(grad, [-2.0, -2.0])

    def test_zero_when_equal(self):
        x = np.arange(6, dtype=np.float64).reshape(2, 3)
        loss, grad = mse_loss(x, x.copy())
        assert loss == 0.0
        np.testing.assert_array_equal(grad, np.zeros_like(x))

    def test_gradient_matches_central_differences(self):
        gen = np.random.default_rng(3)
        s = gen.standard_normal((2, 3))
        t = gen.standard_normal((2, 3))
        _, grad = mse_loss(s, t)

        def f(_=None):
            return mse_loss(s, t)[0]

        for idx in np.ndindex(s.shape):
            numeric = oracles.central_difference(f, s, idx)
            assert oracles.gradcheck_rel_err(float(grad[idx]), numeric) < 1e-8

    def test_shape_mismatch(self):
        with pytest.raises(LengthMismatch):
            mse_loss(np.zeros((2, 3)), np.zeros(6))

    @pytest.mark.parametrize("shift", [-3.0, 0.5, 5.0])
    def test_constant_shift_costs_its_square(self, shift):
        # unlike a softmax-based loss, a shift on every output is seen and pulled back
        t = np.random.default_rng(4).standard_normal(9)
        loss, grad = mse_loss(t + shift, t)
        assert loss == pytest.approx(shift * shift, rel=1e-12)
        np.testing.assert_allclose(grad, np.full(9, 2.0 * shift / 9), rtol=1e-12)

    def test_nonnegative_over_random_pairs(self):
        gen = np.random.default_rng(5)
        for _ in range(50):
            loss, _ = mse_loss(gen.standard_normal((3, 4)), gen.standard_normal((3, 4)))
            assert loss >= 0.0

    def test_swapping_arguments_keeps_loss_and_negates_gradient(self):
        gen = np.random.default_rng(6)
        s = gen.standard_normal((2, 5))
        t = gen.standard_normal((2, 5))
        loss_st, grad_st = mse_loss(s, t)
        loss_ts, grad_ts = mse_loss(t, s)
        assert loss_st == loss_ts
        np.testing.assert_array_equal(grad_ts, -grad_st)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_keeps_student_dtype(self, dtype):
        s = np.array([1.0, -2.0, 0.5], dtype=dtype)
        t = np.zeros(3, dtype=np.float64)
        _, grad = mse_loss(s, t)
        assert grad.dtype == dtype


def adapter_graph(feat_shape: tuple, channels: int, seed: int = 0) -> LayerGraph:
    """The adapter alone: with_adapter on a graph with no layers, whose output
    is its input, so the graph input is the student feature map."""
    return with_adapter(LayerGraph(feat_shape, []), channels, seed)


def float64_adapter(feat_shape: tuple, channels: int, seed: int) -> LayerGraph:
    graph = adapter_graph(feat_shape, channels)
    gen = np.random.default_rng(seed)
    conv = graph.layer("adapter")
    conv.set_param("weight", 0.3 * gen.standard_normal((channels, feat_shape[0], 1, 1)))
    conv.set_param("bias", 0.1 * gen.standard_normal(channels))
    return graph


def identity_adapter(feat_shape: tuple) -> LayerGraph:
    channels = feat_shape[0]
    graph = adapter_graph(feat_shape, channels)
    conv = graph.layer("adapter")
    conv.set_param("weight", np.eye(channels, dtype=np.float32).reshape(channels, channels, 1, 1))
    conv.set_param("bias", np.zeros(channels, np.float32))
    return graph


def align_step(graph: LayerGraph, feat: np.ndarray, teacher_feat: np.ndarray):
    """(loss, gradient w.r.t. the graph input, parameter gradients) of one
    feature-alignment step through the graph."""
    out, tape = graph.forward(feat, record=True)
    loss, gout = feature_align_loss(out, teacher_feat)
    grads, gfeat = graph.backward(tape, gout)
    return loss, gfeat, grads


class TestWithAdapter:
    def test_appends_a_seeded_pointwise_conv_to_the_student(self):
        student = build_toy_backbone(ToyConfig(backbone_width=8, seed=1))
        a = with_adapter(student, 16, seed=9)
        b = with_adapter(student, 16, seed=9)
        conv = a.layer("adapter")
        assert len(a.layers) == len(student.layers) + 1
        assert all(x is y for x, y in zip(a.layers, student.layers))
        assert (a.output, conv.inputs) == ("adapter", [student.output])
        assert (a.input_shape, a.output_shape) == (student.input_shape, (16, 8, 8))
        assert (conv.kernel, conv.stride, conv.padding) == (1, 1, 0)
        assert conv.weight.shape == (16, 8, 1, 1)
        assert conv.bias.shape == (16,)
        np.testing.assert_array_equal(conv.weight, b.layer("adapter").weight)
        assert not np.array_equal(conv.weight, with_adapter(student, 16, seed=10).layer("adapter").weight)

    def test_a_step_on_the_adapted_graph_trains_the_student_in_place(self):
        teacher = build_toy_backbone(ToyConfig(backbone_width=16, seed=1))
        student = build_toy_backbone(ToyConfig(backbone_width=8, seed=2))
        before = copy.deepcopy(student.params())
        adapted = with_adapter(student, 16, seed=3)
        x = make_input_sampler(student.input_shape, 1, seed=4)[0]
        _, _, grads = align_step(adapted, x, teacher.forward(x))
        assert set(grads) == set(student.params()) | {"adapter"}
        sgd_step(adapted, grads, 0.1)
        for name, params in student.params().items():
            for key, arr in params.items():
                np.testing.assert_array_equal(arr, before[name][key] - 0.1 * grads[name][key])

    def test_cannot_reduce_channels(self):
        with pytest.raises(InvalidConfig) as exc:
            adapter_graph((8, 4, 4), 3)
        assert str(exc.value) == "adapter cannot reduce the channel count: student 8, teacher 3"

    def test_needs_a_feature_map_output(self):
        with pytest.raises(ShapeMismatch):
            with_adapter(build_toy_gdrn(ToyConfig(8, 16, 8, 4, seed=1)), 16)


class TestFeatureAlignLoss:
    def test_matching_features_give_zero_loss(self):
        feat = np.random.default_rng(5).standard_normal((3, 4, 4)).astype(np.float32)
        loss, gfeat, gparams = align_step(identity_adapter(feat.shape), feat, feat.copy())
        assert loss < 1e-10
        np.testing.assert_allclose(gfeat, 0.0, atol=1e-5)
        for g in gparams["adapter"].values():
            np.testing.assert_allclose(g, 0.0, atol=1e-5)

    def test_l2_normalization_ignores_feature_scale(self):
        feat = np.random.default_rng(6).standard_normal((3, 4, 4)).astype(np.float32)
        loss, _ = feature_align_loss(2.5 * feat, feat)
        assert loss < 1e-10

    def test_channel_count_mismatch_rejected(self):
        student = np.zeros((2, 4, 4), np.float32)
        teacher = np.zeros((8, 4, 4), np.float32)
        with pytest.raises(ShapeMismatch):
            feature_align_loss(student, teacher)

    def test_gradients_match_central_differences(self):
        gen = np.random.default_rng(8)
        student = gen.standard_normal((2, 3, 3))
        teacher = gen.standard_normal((4, 3, 3))
        adapter = float64_adapter(student.shape, 4, seed=13)

        def f(_=None):
            return feature_align_loss(adapter.forward(student), teacher)[0]

        _, gfeat, gparams = align_step(adapter, student, teacher)
        for idx in np.ndindex(student.shape):
            numeric = oracles.central_difference(f, student, idx)
            assert oracles.gradcheck_rel_err(float(gfeat[idx]), numeric) < 1e-6
        for key, arr in adapter.layer("adapter").params().items():
            for idx in np.ndindex(arr.shape):
                numeric = oracles.central_difference(f, arr, idx)
                assert oracles.gradcheck_rel_err(float(gparams["adapter"][key][idx]), numeric) < 1e-6


def scalar_graph(weight: float) -> LayerGraph:
    return LayerGraph(
        (1, 1, 1),
        [
            Flatten("f", ["@input"]),
            Dense(
                "d",
                ["f"],
                np.array([[weight]], dtype=np.float64),
                np.zeros(1, np.float64),
            ),
        ],
    )


class TestSgdStep:
    def test_zero_learning_rate_is_a_no_op(self):
        g = scalar_graph(2.0)
        grads = {"d": {"weight": np.array([[5.0]]), "bias": np.array([7.0])}}
        sgd_step(g, grads, 0.0)
        assert g.layer("d").weight[0, 0] == 2.0
        assert g.layer("d").bias[0] == 0.0

    def test_hand_update(self):
        g = scalar_graph(2.0)
        grads = {"d": {"weight": np.array([[4.0]]), "bias": np.array([1.0])}}
        sgd_step(g, grads, 0.25)
        assert g.layer("d").weight[0, 0] == 1.0
        assert g.layer("d").bias[0] == -0.25

    def test_incongruent_gradients_rejected(self):
        g = scalar_graph(2.0)
        with pytest.raises(ShapeMismatch):
            sgd_step(g, {"zz": {"weight": np.zeros((1, 1))}}, 0.1)
        with pytest.raises(ShapeMismatch):
            sgd_step(g, {"d": {"weight": np.zeros((2, 2))}}, 0.1)

    def test_quadratic_descent_converges(self):
        # Minimize (y - 3)^2 by steepest descent; weight and bias share the
        # gradient with x=1, so each converges to half the target.
        g = scalar_graph(0.0)
        x = np.ones((1, 1, 1), np.float64)
        for _ in range(100):
            y, tape = g.forward(x, record=True)
            _, gout = mse_loss(y, np.array([3.0]))
            grads, _ = g.backward(tape, gout)
            sgd_step(g, grads, 0.4)
        assert abs(g.forward(x)[0] - 3.0) < 1e-3
        assert abs(g.layer("d").weight[0, 0] - 1.5) < 1e-3


class TestInputSampler:
    def test_deterministic_by_seed(self):
        a = make_input_sampler((2, 3, 3), 4, seed=5)
        b = make_input_sampler((2, 3, 3), 4, seed=5)
        assert len(a) == 4
        for xa, xb in zip(a, b):
            assert xa.shape == (2, 3, 3)
            assert xa.dtype == np.float32
            np.testing.assert_array_equal(xa, xb)

    def test_different_seed_changes_samples(self):
        a = make_input_sampler((2, 2, 2), 1, seed=5)[0]
        b = make_input_sampler((2, 2, 2), 1, seed=6)[0]
        assert not np.array_equal(a, b)


def tiny_teacher_student(seed: int, student_channels: int = 2, teacher_channels: int = 2):
    gen = np.random.default_rng(seed)

    def conv_graph(channels, key):
        w = (0.5 * gen.standard_normal((channels, 1, 1, 1))).astype(np.float32)
        b = (0.1 * gen.standard_normal(channels)).astype(np.float32)
        return LayerGraph((1, 4, 4), [Conv2D(key, ["@input"], w, b)])

    return conv_graph(teacher_channels, "t"), conv_graph(student_channels, "s")


class TestTrain:
    def pairs(self, teacher, count, seed):
        return [(x, teacher.forward(x)) for x in make_input_sampler((1, 4, 4), count, seed=seed)]

    def test_generator_of_pairs_is_accepted(self):
        teacher, student = tiny_teacher_student(20)
        twin = copy.deepcopy(student)
        pairs = self.pairs(teacher, 3, seed=21)
        from_list = train(student, pairs, mse_loss, 0.05)
        from_generator = train(twin, ((x, t) for x, t in pairs), mse_loss, 0.05)
        assert from_generator == from_list
        for name, params in student.params().items():
            for key, arr in params.items():
                assert arr.tobytes() == twin.params()[name][key].tobytes()

    def test_returns_the_mean_of_the_step_losses(self):
        teacher, student = tiny_teacher_student(22)
        values = []

        def recording(out, target):
            value, grad = mse_loss(out, target)
            values.append(value)
            return value, grad

        mean = train(student, self.pairs(teacher, 3, seed=23), recording, 0.05)
        assert len(values) == 3 and len(set(values)) == 3
        assert mean == sum(values) / 3

    @pytest.mark.parametrize("pairs", [[], iter(())], ids=["list", "iterator"])
    def test_no_pairs_raises(self, pairs, layer_forward_calls):
        _, student = tiny_teacher_student(24)
        before = copy.deepcopy(student.params())
        with pytest.raises(EmptyInput):
            train(student, pairs, mse_loss, 0.05)
        assert sum(layer_forward_calls.values()) == 0
        for name, params in student.params().items():
            for key, arr in params.items():
                np.testing.assert_array_equal(arr, before[name][key])

    def test_one_distill_epoch_is_one_pass_over_teacher_pairs(self):
        teacher = build_toy_backbone(ToyConfig(backbone_width=16, seed=25))
        student = with_adapter(build_toy_backbone(ToyConfig(backbone_width=8, seed=26)), 16, seed=27)
        twin = copy.deepcopy(student)
        inputs = make_input_sampler(student.input_shape, 2, seed=28)
        _, trace = distill_train(teacher, student, feature_align_loss,
                                 DistillConfig(learning_rate=0.1, epochs=1), inputs)
        mean = train(twin, [(x, teacher.forward(x)) for x in inputs], feature_align_loss, 0.1)
        assert trace == [mean]
        for name, params in student.params().items():
            for key, arr in params.items():
                assert arr.tobytes() == twin.params()[name][key].tobytes()

    def test_looks_sgd_step_up_at_each_step(self, monkeypatch):
        # the benchmark's traced net-train run replaces distill.sgd_step by name and must see every step
        calls = []

        def counting(graph, grads, learning_rate):
            calls.append((graph, learning_rate))
            return sgd_step(graph, grads, learning_rate)

        teacher, student = tiny_teacher_student(29)
        pairs = self.pairs(teacher, 3, seed=30)
        monkeypatch.setattr(distill, "sgd_step", counting)
        train(student, iter(pairs), mse_loss, 0.05)
        assert calls == [(student, 0.05)] * 3


class TestDistillTrain:
    def test_trace_length_equals_epochs(self):
        teacher, student = tiny_teacher_student(0)
        inputs = make_input_sampler((1, 4, 4), 3, seed=1)
        cfg = DistillConfig(learning_rate=0.05, epochs=7)
        _, trace = distill_train(teacher, student, mse_loss, cfg, inputs)
        assert len(trace) == 7

    def test_zero_epochs_changes_nothing(self):
        teacher, student = tiny_teacher_student(1)
        before = copy.deepcopy(student.params())
        cfg = DistillConfig(learning_rate=0.05, epochs=0)
        _, trace = distill_train(
            teacher, student, mse_loss, cfg, make_input_sampler((1, 4, 4), 2, seed=2)
        )
        assert trace == []
        for name, params in student.params().items():
            for key, arr in params.items():
                np.testing.assert_array_equal(arr, before[name][key])

    def test_loss_decreases_on_fixed_input(self):
        drops = 0
        for seed in range(5):
            teacher, student = tiny_teacher_student(seed + 10)
            inputs = make_input_sampler((1, 4, 4), 1, seed=seed)
            cfg = DistillConfig(learning_rate=0.05, epochs=20)
            _, trace = distill_train(teacher, student, mse_loss, cfg, inputs)
            drops += trace[-1] < trace[0]
        assert drops == 5

    def test_training_is_bit_reproducible(self):
        teacher, student = tiny_teacher_student(3)
        twin = copy.deepcopy(student)
        inputs = make_input_sampler((1, 4, 4), 2, seed=4)
        cfg = DistillConfig(learning_rate=0.05, epochs=5)
        _, trace_a = distill_train(teacher, student, mse_loss, cfg, inputs)
        _, trace_b = distill_train(teacher, twin, mse_loss, cfg, inputs)
        assert trace_a == trace_b
        for name, params in student.params().items():
            for key, arr in params.items():
                np.testing.assert_array_equal(arr, twin.params()[name][key])

    def test_adapter_route_reduces_alignment_loss(self):
        teacher, student = tiny_teacher_student(5, student_channels=2, teacher_channels=4)
        adapted = with_adapter(student, 4, seed=5)
        inputs = make_input_sampler((1, 4, 4), 2, seed=6)
        cfg = DistillConfig(learning_rate=0.1, epochs=30)
        _, trace = distill_train(teacher, adapted, feature_align_loss, cfg, inputs)
        assert trace[-1] < trace[0]

    @pytest.mark.parametrize("adapted", [False, True])
    def test_student_runs_forward_once_per_step(self, adapted, layer_forward_calls):
        teacher = build_toy_backbone(ToyConfig(backbone_width=16, seed=1))
        student = build_toy_backbone(ToyConfig(backbone_width=8 if adapted else 16, seed=2))
        trained, loss = (with_adapter(student, 16, seed=3), feature_align_loss) if adapted else (student, mse_loss)
        inputs = make_input_sampler(student.input_shape, 2, seed=4)
        cfg = DistillConfig(learning_rate=1e-3, epochs=3)
        distill_train(teacher, trained, loss, cfg, inputs)
        assert [layer_forward_calls[layer] for layer in trained.layers] == [6] * len(trained.layers)
        assert [layer_forward_calls[layer] for layer in teacher.layers] == [2] * len(teacher.layers)
        assert len(trained.layers) == len(student.layers) + adapted

    def test_student_shifted_on_every_output_gets_loss_and_gradient(self):
        # The pose output is not a class distribution: a student 5 units above
        # the teacher on all nine outputs must cost 5**2 and be pulled back down.
        teacher = build_toy_gdrn(ToyConfig(8, 16, 8, 4, seed=1))
        student = copy.deepcopy(teacher)
        out = student.layer("pnp.out")
        shifted = out.bias + np.float32(5.0)
        out.set_param("bias", shifted)
        inputs = make_input_sampler(student.input_shape, 2, seed=2)
        _, trace = distill_train(teacher, student, mse_loss, DistillConfig(learning_rate=1e-6), inputs)
        assert trace[0] == pytest.approx(25.0, rel=1e-5)
        assert (student.layer("pnp.out").bias < shifted).all()

    @pytest.mark.parametrize("adapted", [False, True])
    def test_input_shape_mismatch_raises_before_any_forward(self, adapted, layer_forward_calls):
        cfg = ToyConfig(8, 16, 8, 4, seed=1)
        teacher = build_toy_head(cfg)
        if adapted:
            student, loss = with_adapter(build_toy_backbone(cfg), teacher.output_shape[0]), feature_align_loss
        else:
            student, loss = build_toy_gdrn(cfg), mse_loss
        inputs = make_input_sampler(student.input_shape, 2, seed=2)
        with pytest.raises(ShapeMismatch) as exc:
            distill_train(teacher, student, loss, DistillConfig(), inputs)
        assert str(exc.value) == ("teacher and student differ in input shape: "
                                  f"teacher {teacher.input_shape}, student {student.input_shape}")
        assert sum(layer_forward_calls.values()) == 0

    def test_output_shape_mismatch_without_adapter_raises_before_any_forward(self, layer_forward_calls):
        teacher, student = tiny_teacher_student(6, student_channels=2, teacher_channels=4)
        inputs = make_input_sampler((1, 4, 4), 2, seed=7)
        with pytest.raises(ShapeMismatch) as exc:
            distill_train(teacher, student, mse_loss, DistillConfig(), inputs)
        assert str(exc.value) == "teacher and student differ in output shape: teacher (4, 4, 4), student (2, 4, 4)"
        assert sum(layer_forward_calls.values()) == 0

    def test_adapter_route_output_shape_mismatch_raises_before_any_forward(self, layer_forward_calls):
        # equal input shapes and channel counts, but the teacher's map is half the size
        teacher, student = tiny_teacher_student(6, student_channels=2, teacher_channels=4)
        conv = teacher.layers[0]
        teacher = LayerGraph((1, 4, 4), [Conv2D("t", ["@input"], conv.weight, conv.bias, stride=2)])
        adapted = with_adapter(student, 4)
        inputs = make_input_sampler((1, 4, 4), 2, seed=7)
        with pytest.raises(ShapeMismatch) as exc:
            distill_train(teacher, adapted, feature_align_loss, DistillConfig(), inputs)
        assert str(exc.value) == "teacher and student differ in output shape: teacher (4, 2, 2), student (4, 4, 4)"
        assert sum(layer_forward_calls.values()) == 0

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_empty_input_list_raises(self, epochs):
        teacher, student = tiny_teacher_student(6)
        with pytest.raises(EmptyInput):
            distill_train(teacher, student, mse_loss, DistillConfig(epochs=epochs), [])

    def test_seed_does_not_change_training(self):
        teacher, student = tiny_teacher_student(7)
        twin = copy.deepcopy(student)
        inputs = make_input_sampler((1, 4, 4), 2, seed=8)
        _, trace_a = distill_train(teacher, student, mse_loss,
                                   DistillConfig(learning_rate=0.05, epochs=3, seed=0), inputs)
        _, trace_b = distill_train(teacher, twin, mse_loss,
                                   DistillConfig(learning_rate=0.05, epochs=3, seed=11), inputs)
        assert trace_a == trace_b
        for name, params in student.params().items():
            for key, arr in params.items():
                np.testing.assert_array_equal(arr, twin.params()[name][key])


class TestFineTune:
    def small_cfg(self, **kw):
        base = dict(backbone_width=8, head_width=16, pnp_width=8, regions=4)
        base.update(kw)
        return ToyConfig(**base)

    def test_identical_models_start_at_zero_loss(self):
        reference = build_toy_gdrn(self.small_cfg(seed=1))
        clone = copy.deepcopy(reference)
        inputs = make_input_sampler((3, 64, 64), 2, seed=7)
        cfg = DistillConfig(learning_rate=1e-4, epochs=2)
        _, trace = fine_tune(clone, reference, cfg, inputs)
        assert trace[0] < 1e-10

    def test_recovers_pruned_model(self):
        reference = build_toy_gdrn(self.small_cfg(seed=2))
        plan = plan_prune(reference, PruneConfig(d_head=1))
        pruned = apply_prune(reference, plan)
        inputs = make_input_sampler((3, 64, 64), 4, seed=8)
        cfg = DistillConfig(learning_rate=1e-3, epochs=10)
        _, trace = fine_tune(pruned, reference, cfg, inputs)
        assert trace[-1] < trace[0]

    def test_runs_each_student_layer_once_per_step(self, layer_forward_calls):
        reference = build_toy_gdrn(self.small_cfg(seed=4))
        pruned = apply_prune(reference, plan_prune(reference, PruneConfig(d_head=1)))
        inputs = make_input_sampler((3, 64, 64), 3, seed=10)
        fine_tune(pruned, reference, DistillConfig(learning_rate=1e-4, epochs=2), inputs)
        # each head upsample is fused into the conv after it and never runs
        fused = {"head.up1", "head.up2", "head.up3"}

        def expected(graph, runs):
            return [0 if layer.name in fused else runs for layer in graph.layers]

        assert [layer_forward_calls[layer] for layer in pruned.layers] == expected(pruned, 6)
        assert [layer_forward_calls[layer] for layer in reference.layers] == expected(reference, 3)

    def test_empty_input_list_raises(self):
        reference = build_toy_gdrn(self.small_cfg(seed=5))
        with pytest.raises(EmptyInput):
            fine_tune(copy.deepcopy(reference), reference, DistillConfig(), [])

    def test_matches_distill_train_without_adapter(self):
        reference = build_toy_gdrn(self.small_cfg(seed=6))
        pruned = apply_prune(reference, plan_prune(reference, PruneConfig(d_head=1)))
        twin = copy.deepcopy(pruned)
        inputs = make_input_sampler((3, 64, 64), 2, seed=11)
        cfg = DistillConfig(learning_rate=1e-3, epochs=2)
        _, tuned_trace = fine_tune(pruned, reference, cfg, inputs)
        _, distilled_trace = distill_train(reference, twin, mse_loss, cfg, inputs)
        assert tuned_trace == distilled_trace
        for name, params in pruned.params().items():
            for key, arr in params.items():
                np.testing.assert_array_equal(arr, twin.params()[name][key])

    def test_looks_mse_loss_up_at_each_call(self, monkeypatch):
        # the benchmark's traced net-train run replaces distill.mse_loss by name and must see every step
        calls = []

        def counting(out, target):
            calls.append(out.shape)
            return mse_loss(out, target)

        monkeypatch.setattr(distill, "mse_loss", counting)
        reference = build_toy_backbone(ToyConfig(backbone_width=8, seed=7))
        inputs = make_input_sampler(reference.input_shape, 2, seed=12)
        fine_tune(copy.deepcopy(reference), reference, DistillConfig(epochs=3), inputs)
        assert calls == [reference.output_shape] * 6


class TestDistillConfig:
    @pytest.mark.parametrize("kind", ["kl", "hinge", "MSE", ""])
    def test_any_loss_kind_but_mse_is_invalid(self, kind):
        with pytest.raises(InvalidConfig):
            DistillConfig(loss_kind=kind)

    def test_invalid_learning_rate(self):
        with pytest.raises(InvalidConfig):
            DistillConfig(learning_rate=0.0)

    def test_negative_epochs(self):
        with pytest.raises(InvalidConfig):
            DistillConfig(epochs=-1)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_learning_rate_is_invalid(self, rate):
        with pytest.raises(InvalidConfig):
            DistillConfig(learning_rate=rate)

    def test_net_train_arguments_are_accepted(self):
        # the benchmark's net-train workload builds its config with these keywords
        cfg = DistillConfig(learning_rate=1e-3, epochs=2, seed=0, loss_kind="mse")
        assert (cfg.learning_rate, cfg.epochs, cfg.seed, cfg.loss_kind) == (1e-3, 2, 0, "mse")


class TestTraceCsv:
    def test_format(self):
        lines = format_trace_csv([0.5, 0.25]).splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert lines[1] == "0,0.5"
        assert lines[2] == "1,0.25"

    def test_empty_trace_writes_header_only(self):
        assert format_trace_csv([]) == "epoch,mean_loss\n"

    def test_losses_round_trip_exactly(self):
        trace = [0.1, 1.0 / 3.0, 2.5e-17, 12345.678901234567]
        rows = format_trace_csv(trace).splitlines()[1:]
        assert [float(row.split(",")[1]) for row in rows] == trace
