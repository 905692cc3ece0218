"""Teacher-student training: output regression, feature alignment, SGD.

Two routes move knowledge from a teacher graph into a student:

* output regression: the mean squared difference between the graph
  outputs. The toy network's output is a pose, not class logits, so it is
  regressed; a softmax over it would not see a constant shift;
* feature alignment: a 1x1-conv adapter lifts student feature maps to the
  teacher's channel count, both maps are scaled to unit L2 norm along
  channels per pixel, and the mean squared difference is minimized.

Fine-tuning a pruned model is the output route with the unpruned reference
model as teacher, which is how pruned models recover accuracy: `fastpose
distill --teacher REFERENCE --student PRUNED`, or fine_tune in code.
format_trace_csv turns a loop's per-epoch loss trace into CSV text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import EmptyInput, InvalidConfig, LengthMismatch, ShapeMismatch
from .net.graph import LayerGraph, gradients_congruent
from .net.layers import GRAPH_INPUT, Conv2D
from .net.toy import _conv


@dataclass(frozen=True)
class DistillConfig:
    # perfbench's net-train passes loss_kind="mse"; any other value is rejected, not trained as MSE
    loss_kind: str = "mse"
    learning_rate: float = 1e-3
    epochs: int = 1
    seed: int = 0  # perfbench's net-train passes it; training reads no randomness

    def __post_init__(self):
        if self.loss_kind != "mse":
            raise InvalidConfig(f"loss_kind must be 'mse', got {self.loss_kind!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidConfig("learning_rate must be positive and finite")
        if self.epochs < 0:
            raise InvalidConfig("epochs must be >= 0")


def mse_loss(student_out: np.ndarray, teacher_out: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean squared difference over all elements and its gradient
    with respect to the student output."""
    s = np.asarray(student_out)
    t = np.asarray(teacher_out)
    if s.shape != t.shape:
        raise LengthMismatch(f"outputs differ in shape: {s.shape} vs {t.shape}")
    diff = (s - t).astype(np.float64)
    loss = float((diff * diff).mean())
    grad = (2.0 / diff.size) * diff
    return loss, grad.astype(s.dtype)


class Adapter:
    """1x1 conv lifting student feature maps to the teacher's channel count."""

    def __init__(self, conv: Conv2D):
        if conv.kernel != 1 or conv.stride != 1 or conv.padding != 0:
            raise InvalidConfig("adapter must wrap a 1x1 stride-1 conv")
        if conv.in_channels > conv.out_channels:
            raise InvalidConfig("adapter cannot reduce the channel count")
        self.conv = conv

    @classmethod
    def create(cls, in_channels: int, out_channels: int, seed: int = 0) -> "Adapter":
        return cls(_conv("adapter", GRAPH_INPUT, in_channels, out_channels, 1, 1, 0, seed))

    def forward(self, feat: np.ndarray):
        return self.conv.forward([feat])

    def backward(self, gy: np.ndarray, cache):
        gxs, gparams = self.conv.backward(gy, cache)
        return gxs[0], gparams


def _normalize_l2(feat: np.ndarray):
    """Unit L2 norm along channels per pixel; zero vectors pass through."""
    norms = np.sqrt((feat.astype(np.float64) ** 2).sum(axis=0, keepdims=True))
    safe = np.where(norms == 0.0, 1.0, norms)
    y = (feat / safe).astype(feat.dtype)
    return y, safe

def _normalize_l2_grad(g, y, safe):
    dot = (g.astype(np.float64) * y).sum(axis=0, keepdims=True)
    return ((g - y * dot) / safe).astype(g.dtype)


def align_and_loss(student_feat: np.ndarray, teacher_feat: np.ndarray, adapter: Adapter):
    """Adapter + per-pixel L2 normalization + MSE against the teacher map.

    Returns (loss, gradient w.r.t. the raw student features, adapter
    parameter gradients). The teacher map is a constant target.
    """
    lifted, cache = adapter.forward(student_feat)
    if lifted.shape != teacher_feat.shape:
        raise ShapeMismatch(f"adapter output {lifted.shape} vs teacher features {teacher_feat.shape}")
    ns, safe = _normalize_l2(lifted)
    nt, _ = _normalize_l2(teacher_feat)
    loss, gn = mse_loss(ns, nt)
    gfeat, gparams = adapter.backward(_normalize_l2_grad(gn, ns, safe), cache)
    return loss, gfeat, gparams


def _descend(layer, grads: dict, learning_rate: float) -> None:
    for key, g in grads.items():
        layer.set_param(key, layer.params()[key] - learning_rate * g)


def sgd_step(graph: LayerGraph, grads: dict, learning_rate: float) -> None:
    """In-place w <- w - lr * g over every gradient entry."""
    if not gradients_congruent(graph, grads):
        raise ShapeMismatch("gradients are not congruent with the graph parameters")
    for name, by_key in grads.items():
        _descend(graph.layer(name), by_key, learning_rate)


def make_input_sampler(shape: tuple, count: int, seed: int) -> list[np.ndarray]:
    """A fixed list of standard-normal float32 inputs, reproducible from the seed."""
    gen = rng.derive(seed, "inputs")
    return [gen.standard_normal(shape).astype(np.float32) for _ in range(count)]


def distill_train(teacher: LayerGraph, student: LayerGraph, adapter: Adapter | None,
                  config: DistillConfig, inputs: list[np.ndarray]):
    """SGD over the fixed input list; returns (student, per-epoch mean loss).

    With an adapter the loss is feature alignment between the graph outputs
    treated as feature maps; without one it is mse_loss on the outputs.
    The student (and adapter) are updated in place, one step per sample, and
    each step runs the student forward once. An empty input list is EmptyInput;
    models that differ in input shape, or without an adapter in output shape,
    are ShapeMismatch before either model runs.
    """
    if len(inputs) == 0:
        raise EmptyInput("distillation needs at least one input sample")
    shapes = [("input", teacher.input_shape, student.input_shape)]
    if adapter is None:
        shapes.append(("output", teacher.output_shape, student.output_shape))
    for kind, t_shape, s_shape in shapes:
        if t_shape != s_shape:
            raise ShapeMismatch(f"teacher and student differ in {kind} shape: teacher {t_shape}, student {s_shape}")
    trace = []
    targets = [teacher.forward(x) for x in inputs]
    for _ in range(config.epochs):
        total = 0.0
        for x, target in zip(inputs, targets):
            out, tape = student.forward(x, record=True)
            if adapter is not None:
                loss, gout, adapter_grads = align_and_loss(out, target, adapter)
            else:
                # looked up by name at each call, so perfbench's traced distill.mse_loss span records it
                loss, gout = mse_loss(out, target)
                adapter_grads = None
            grads, _ = student.backward(tape, gout)
            del tape  # not held through the next step's forward
            sgd_step(student, grads, config.learning_rate)
            if adapter_grads:
                _descend(adapter.conv, adapter_grads, config.learning_rate)
            total += loss
        trace.append(total / len(inputs))
    return student, trace


def fine_tune(pruned: LayerGraph, reference: LayerGraph, config: DistillConfig,
              inputs: list[np.ndarray]):
    """Recover a pruned model by regressing its outputs onto the reference's."""
    return distill_train(reference, pruned, None, config, inputs)


def format_trace_csv(trace) -> str:
    """Loss-trace CSV text: one row per epoch's mean loss."""
    lines = ["epoch,mean_loss"]
    lines += [f"{i},{loss:.17g}" for i, loss in enumerate(trace)]
    return "\n".join(lines) + "\n"
