"""Teacher-student training: one SGD loop with a loss callback.

distill_train steps a student graph on a fixed input list against the
teacher's outputs; its loss callback returns (value, gradient w.r.t. the
student output). Two callbacks ship:

* mse_loss, output regression. The toy network's output is a pose, not
  class logits, so it is regressed; a softmax over it would not see a
  constant shift;
* feature_align_loss: both feature maps are scaled to unit L2 norm along
  channels per pixel, then mse_loss. A narrower student map is lifted to
  the teacher's channel count by the 1x1 conv that with_adapter appends to
  the student, so one step trains both.

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


def with_adapter(student: LayerGraph, channels: int, seed: int = 0) -> LayerGraph:
    """The student's own layer objects followed by a 1x1 conv named "adapter",
    drawn from `seed`, lifting the output map to `channels` channels; training
    the graph trains the student in place."""
    if len(student.output_shape) != 3:
        raise ShapeMismatch(f"the adapter needs a feature-map output, got shape {student.output_shape}")
    in_channels = student.output_shape[0]
    if in_channels > channels:
        raise InvalidConfig(f"adapter cannot reduce the channel count: student {in_channels}, teacher {channels}")
    adapter = _conv("adapter", student.output, in_channels, channels, 1, 1, 0, seed)
    return LayerGraph(student.input_shape, [*student.layers, adapter], output=adapter.name)


def _normalize_l2(feat: np.ndarray):
    """Unit L2 norm along channels per pixel; zero vectors pass through."""
    norms = np.sqrt((feat.astype(np.float64) ** 2).sum(axis=0, keepdims=True))
    safe = np.where(norms == 0.0, 1.0, norms)
    y = (feat / safe).astype(feat.dtype)
    return y, safe

def _normalize_l2_grad(g, y, safe):
    dot = (g.astype(np.float64) * y).sum(axis=0, keepdims=True)
    return ((g - y * dot) / safe).astype(g.dtype)


def feature_align_loss(student_feat: np.ndarray, teacher_feat: np.ndarray) -> tuple[float, np.ndarray]:
    """mse_loss between the two maps scaled to unit L2 norm along channels per
    pixel, and its gradient with respect to the raw student map."""
    if student_feat.shape != teacher_feat.shape:
        raise ShapeMismatch(f"student features {student_feat.shape} vs teacher features {teacher_feat.shape}")
    ns, safe = _normalize_l2(student_feat)
    nt, _ = _normalize_l2(teacher_feat)
    loss, gn = mse_loss(ns, nt)
    return loss, _normalize_l2_grad(gn, ns, safe)


def sgd_step(graph: LayerGraph, grads: dict, learning_rate: float) -> None:
    """In-place w <- w - lr * g over every gradient entry."""
    if not gradients_congruent(graph, grads):
        raise ShapeMismatch("gradients are not congruent with the graph parameters")
    for name, by_key in grads.items():
        layer = graph.layer(name)
        for key, g in by_key.items():
            layer.set_param(key, layer.params()[key] - learning_rate * g)


def make_input_sampler(shape: tuple, count: int, seed: int) -> list[np.ndarray]:
    """A fixed list of standard-normal float32 inputs, reproducible from the seed."""
    gen = rng.derive(seed, "inputs")
    return [gen.standard_normal(shape).astype(np.float32) for _ in range(count)]


def distill_train(teacher: LayerGraph, student: LayerGraph, loss, config: DistillConfig,
                  inputs: list[np.ndarray]):
    """SGD over the fixed input list; returns (student, per-epoch mean loss).

    loss(student_out, teacher_out) returns (value, gradient w.r.t.
    student_out): mse_loss, or feature_align_loss with a student from
    with_adapter. The student is updated in place, one step per sample, and
    each step runs it forward once. An empty input list is EmptyInput; models
    that differ in input or output shape are ShapeMismatch before either
    model runs.
    """
    if len(inputs) == 0:
        raise EmptyInput("distillation needs at least one input sample")
    for kind, t_shape, s_shape in (("input", teacher.input_shape, student.input_shape),
                                   ("output", teacher.output_shape, student.output_shape)):
        if t_shape != s_shape:
            raise ShapeMismatch(f"teacher and student differ in {kind} shape: teacher {t_shape}, student {s_shape}")
    trace = []
    targets = [teacher.forward(x) for x in inputs]
    for _ in range(config.epochs):
        total = 0.0
        for x, target in zip(inputs, targets):
            out, tape = student.forward(x, record=True)
            value, gout = loss(out, target)
            grads, _ = student.backward(tape, gout)
            del tape  # not held through the next step's forward
            sgd_step(student, grads, config.learning_rate)
            total += value
        trace.append(total / len(inputs))
    return student, trace


def fine_tune(pruned: LayerGraph, reference: LayerGraph, config: DistillConfig,
              inputs: list[np.ndarray]):
    """Recover a pruned model by regressing its outputs onto the reference's."""
    # mse_loss is looked up by name at each call, so perfbench's traced distill.mse_loss span records it
    return distill_train(reference, pruned, mse_loss, config, inputs)


def format_trace_csv(trace) -> str:
    """Loss-trace CSV text: one row per epoch's mean loss."""
    lines = ["epoch,mean_loss"]
    lines += [f"{i},{loss:.17g}" for i, loss in enumerate(trace)]
    return "\n".join(lines) + "\n"
