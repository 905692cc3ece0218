"""Teacher-student training: softened-logit losses, feature alignment, SGD.

Two routes move knowledge from a teacher graph into a student:

* output mimicry: KL between temperature-softened logits (or plain MSE)
  computed on the flattened graph outputs;
* feature alignment: a 1x1-conv adapter lifts student feature maps to the
  teacher's channel count, both maps are normalized per pixel, and the
  mean squared difference is minimized.

fine_tune is the same loop with the unpruned reference model as teacher
and the MSE route, which is how pruned models recover accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import rng
from .errors import EmptyInput, InvalidConfig, InvalidTemperature, LengthMismatch, ShapeMismatch
from .net.graph import LayerGraph, gradients_congruent
from .net.layers import GRAPH_INPUT, Conv2D

LOSS_KINDS = ("kl", "mse")
NORMALIZATIONS = ("l2", "channel_standardize")


@dataclass(frozen=True)
class DistillConfig:
    temperature: float = 1.0
    loss_kind: str = "kl"
    learning_rate: float = 1e-3
    epochs: int = 1
    seed: int = 0
    # the softened-KL prefactor is the temperature itself; set this to use
    # its square, which rescales gradients to be temperature-invariant
    squared_temperature: bool = False
    normalization: str = "l2"

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature > 0):
            raise InvalidTemperature(f"temperature must be positive and finite, got {self.temperature}")
        if self.loss_kind not in LOSS_KINDS:
            raise InvalidConfig(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidConfig("learning_rate must be positive and finite")
        if self.epochs < 0:
            raise InvalidConfig("epochs must be >= 0")
        if self.normalization not in NORMALIZATIONS:
            raise InvalidConfig(f"normalization must be one of {NORMALIZATIONS}")


def soften(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Temperature-scaled softmax, computed max-shifted for stability."""
    if not (math.isfinite(temperature) and temperature > 0):
        raise InvalidTemperature(f"temperature must be positive and finite, got {temperature}")
    z = np.asarray(logits, dtype=np.float64).ravel() / temperature
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def _log_soften(logits: np.ndarray, temperature: float) -> np.ndarray:
    z = np.asarray(logits, dtype=np.float64).ravel() / temperature
    z -= z.max()
    return z - np.log(np.exp(z).sum())


def kl_loss(student_logits: np.ndarray, teacher_logits: np.ndarray, temperature: float,
            squared_temperature: bool = False) -> tuple[float, np.ndarray]:
    """Softened KL divergence from teacher to student and its gradient
    with respect to the student logits."""
    s = np.asarray(student_logits)
    t = np.asarray(teacher_logits)
    if s.size != t.size:
        raise LengthMismatch(f"student has {s.size} logits, teacher has {t.size}")
    scale = temperature * temperature if squared_temperature else temperature
    log_ps = _log_soften(s, temperature)
    pt = soften(t, temperature)
    log_pt = _log_soften(t, temperature)
    loss = scale * float((pt * (log_pt - log_ps)).sum())
    ps = np.exp(log_ps)
    grad = (scale / temperature) * (ps - pt)
    return loss, grad.reshape(s.shape).astype(s.dtype)


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
        gen = rng.derive(seed, "init/adapter")
        bound = 1.0 / math.sqrt(in_channels)
        weight = gen.uniform(-bound, bound, size=(out_channels, in_channels, 1, 1)).astype(np.float32)
        bias = gen.uniform(-bound, bound, size=(out_channels,)).astype(np.float32)
        return cls(Conv2D("adapter", [GRAPH_INPUT], weight, bias))

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


def _standardize_channels(feat: np.ndarray, eps: float = 1e-5):
    """Zero mean, unit variance per channel over the spatial extent."""
    x = feat.astype(np.float64).reshape(feat.shape[0], -1)
    mu = x.mean(axis=1, keepdims=True)
    inv_s = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + eps)
    y = ((x - mu) * inv_s).reshape(feat.shape).astype(feat.dtype)
    return y, inv_s

def _standardize_channels_grad(g, y, inv_s):
    c = g.shape[0]
    g2 = g.astype(np.float64).reshape(c, -1)
    y2 = y.astype(np.float64).reshape(c, -1)
    mean_g = g2.mean(axis=1, keepdims=True)
    mean_gy = (g2 * y2).mean(axis=1, keepdims=True)
    return (inv_s * (g2 - mean_g - y2 * mean_gy)).reshape(g.shape).astype(g.dtype)


def align_and_loss(student_feat: np.ndarray, teacher_feat: np.ndarray, adapter: Adapter,
                   normalization: str = "l2"):
    """Adapter + per-pixel normalization + MSE against the teacher map.

    Returns (loss, gradient w.r.t. the raw student features, adapter
    parameter gradients). The teacher map is a constant target.
    """
    if normalization not in NORMALIZATIONS:
        raise InvalidConfig(f"normalization must be one of {NORMALIZATIONS}")
    lifted, cache = adapter.forward(student_feat)
    if lifted.shape != teacher_feat.shape:
        raise ShapeMismatch(f"adapter output {lifted.shape} vs teacher features {teacher_feat.shape}")
    if normalization == "l2":
        ns, aux = _normalize_l2(lifted)
        nt, _ = _normalize_l2(teacher_feat)
    else:
        ns, aux = _standardize_channels(lifted)
        nt, _ = _standardize_channels(teacher_feat)
    loss, gn = mse_loss(ns, nt)
    if normalization == "l2":
        glifted = _normalize_l2_grad(gn, ns, aux)
    else:
        glifted = _standardize_channels_grad(gn, ns, aux)
    gfeat, gparams = adapter.backward(glifted, cache)
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


def _output_loss(student_out, teacher_out, config: DistillConfig):
    if config.loss_kind == "kl":
        loss, grad = kl_loss(student_out.ravel(), teacher_out.ravel(), config.temperature,
                             config.squared_temperature)
        return loss, grad.reshape(student_out.shape)
    return mse_loss(student_out, teacher_out)


def distill_train(teacher: LayerGraph, student: LayerGraph, adapter: Adapter | None,
                  config: DistillConfig, inputs: list[np.ndarray]):
    """SGD over the fixed input list; returns (student, per-epoch mean loss).

    With an adapter the loss is feature alignment between the graph outputs
    treated as feature maps; without one it is the configured output loss.
    The student (and adapter) are updated in place, one step per sample, and
    each step runs the student forward once. An empty input list is EmptyInput.
    """
    if len(inputs) == 0:
        raise EmptyInput("distillation needs at least one input sample")
    trace = []
    targets = [teacher.forward(x) for x in inputs]
    for _ in range(config.epochs):
        total = 0.0
        for x, target in zip(inputs, targets):
            out, tape = student.forward(x, record=True)
            if adapter is not None:
                loss, gout, adapter_grads = align_and_loss(out, target, adapter, config.normalization)
            else:
                loss, gout = _output_loss(out, target, config)
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
    return distill_train(reference, pruned, None, replace(config, loss_kind="mse"), inputs)


def write_trace_csv(path, trace) -> None:
    lines = ["epoch,mean_loss"]
    lines += [f"{i},{loss:.17g}" for i, loss in enumerate(trace)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
