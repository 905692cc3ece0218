"""LayerGraph: a validated DAG of layers with forward/backward evaluation.

Layers are stored in topological order; producers are referenced by name,
with "@input" denoting the graph input. A graph is mutable only during
construction, pruning, and training steps (validate() after each structural
edit); forward/backward never mutate it. A training step runs forward once:
backward(tape, upstream) consumes the tape of forward(x, record=True).

validate() also plans how the graph runs. Each Upsample2xNearest read only
by a 3x3, stride-1, padding-1 Conv2D is fused into it: forward and backward
skip the upsample and call the conv with upsampled=True on the upsample's
low-resolution input (see Conv2D), so the 4x larger upsampled map is never
built. The pairing belongs to the graph, not to its layer objects, which
other graphs may share; the declared layers, names, shapes, saved format
and count_flops stay those of the unfused network.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatch
from .layers import GRAPH_INPUT, Conv2D, Layer, Upsample2xNearest

Gradients = dict  # layer name -> {param name -> ndarray}


class LayerGraph:
    def __init__(self, input_shape: tuple, layers: list[Layer], output: str | None = None, meta: dict | None = None):
        self.input_shape = tuple(int(d) for d in input_shape)
        self.layers = list(layers)
        self.output = output if output is not None else (self.layers[-1].name if self.layers else GRAPH_INPUT)
        self.meta = dict(meta) if meta else {}
        self._by_name = {}
        self._shapes = {}
        self.validate()

    def validate(self) -> None:
        """Check names, topological order, and per-layer shape contracts; plan
        the run: upsample-conv fusion and when forward drops each activation."""
        self._by_name = {}
        shapes = {GRAPH_INPUT: self.input_shape}
        last_use = {}  # activation -> the last layer that reads it, or itself
        readers = Counter()  # activation -> how many inputs name it
        for layer in self.layers:
            if layer.name in self._by_name or layer.name == GRAPH_INPUT:
                raise ShapeMismatch(f"duplicate layer name {layer.name!r}")
            missing = [i for i in layer.inputs if i not in shapes]
            if missing:
                raise ShapeMismatch(f"{layer.name}: inputs {missing} undefined or out of topological order")
            shapes[layer.name] = layer.out_shape([shapes[i] for i in layer.inputs])
            self._by_name[layer.name] = layer
            last_use.update(dict.fromkeys([layer.name, *layer.inputs], layer.name))
            readers.update(layer.inputs)
        if not isinstance(self.output, str) or self.output not in shapes:
            raise ShapeMismatch(f"output layer {self.output!r} not in graph")
        self._shapes = shapes

        position = {layer.name: i for i, layer in enumerate(self.layers)}
        fused = {}  # conv name -> the upsample whose input it reads instead
        for layer in self.layers:
            up = self._by_name.get(layer.inputs[0]) if isinstance(layer, Conv2D) else None
            if (isinstance(up, Upsample2xNearest) and readers[up.name] == 1 and up.name != self.output
                    and (layer.kernel, layer.stride, layer.padding) == (3, 1, 1)):
                fused[layer.name] = up
                del last_use[up.name]  # never materialised
                src = up.inputs[0]  # now read by the conv, after the upsample
                last_use[src] = max(last_use[src], layer.name, key=position.__getitem__)
        skipped = {up.name for up in fused.values()}
        # (layer, the activations it reads, upsampled) in run order
        self._steps = [
            (layer, fused[layer.name].inputs, True) if layer.name in fused else (layer, layer.inputs, False)
            for layer in self.layers
            if layer.name not in skipped
        ]
        self._drop_after = {layer.name: [] for layer in self.layers}  # what forward frees after it
        for name, user in last_use.items():
            if name != self.output:
                self._drop_after[user].append(name)

    def layer(self, name: str) -> Layer:
        return self._by_name[name]

    def shape_of(self, name: str) -> tuple:
        """Inferred output shape of a layer (or of "@input")."""
        return self._shapes[name]

    @property
    def output_shape(self) -> tuple:
        return self._shapes[self.output]

    def consumers(self, name: str) -> list[Layer]:
        return [l for l in self.layers if name in l.inputs]

    def forward(self, x: np.ndarray, record: bool = False):
        """Evaluate in topological order, dropping each activation after its last
        consumer. With record=True return (output, tape) for backward: the tape
        maps each layer that runs (and "@input") to its cache and its
        activation's dtype; a fused upsample does not run and has no entry."""
        x = np.asarray(x)
        if x.shape != self.input_shape:
            raise ShapeMismatch(f"graph input must have shape {self.input_shape}, got {x.shape}")
        values = {GRAPH_INPUT: x}
        tape = {GRAPH_INPUT: (None, x.dtype)}
        for layer, inputs, upsampled in self._steps:
            xs = [values[i] for i in inputs]
            y, cache = layer.forward(xs, upsampled=True) if upsampled else layer.forward(xs)
            values[layer.name] = y
            if record:
                tape[layer.name] = (cache, y.dtype)
            for name in self._drop_after[layer.name]:
                del values[name]
        out = values[self.output]
        return (out, tape) if record else out

    def backward(self, tape: dict, upstream: np.ndarray):
        """Reverse-mode gradients of sum(upstream * output) w.r.t. all parameters,
        from the tape of forward(x, record=True).

        Returns (param_grads, input_grad). upstream must match the output shape.
        """
        upstream = np.asarray(upstream)
        if upstream.shape != self.output_shape:
            raise ShapeMismatch(f"upstream must have shape {self.output_shape}, got {upstream.shape}")
        gvalues = {self.output: upstream}
        param_grads: Gradients = {}
        for layer, inputs, upsampled in reversed(self._steps):
            cache, dtype = tape[layer.name]
            gy = gvalues.pop(layer.name, None)
            if gy is None:  # the layer does not feed the output
                gy = np.zeros(self.shape_of(layer.name), dtype)
            gxs, gparams = layer.backward(gy, cache, upsampled=True) if upsampled else layer.backward(gy, cache)
            if gparams:
                param_grads[layer.name] = gparams
            for src, gx in zip(inputs, gxs):
                if src in gvalues:
                    gvalues[src] = gvalues[src] + gx
                else:
                    gvalues[src] = gx
        if GRAPH_INPUT not in gvalues:  # the output does not depend on the input
            return param_grads, np.zeros(self.input_shape, tape[GRAPH_INPUT][1])
        return param_grads, gvalues[GRAPH_INPUT]

    def params(self) -> Gradients:
        return {l.name: l.params() for l in self.layers if l.params()}


@dataclass(frozen=True)
class FlopCounts:
    """Forward-pass operation counts: multiply-accumulates for conv/dense
    (bias adds excluded), elementwise ops for everything else."""

    per_layer: dict[str, tuple[int, int]]
    total_macs: int
    total_elementwise: int


def count_flops(graph: LayerGraph) -> FlopCounts:
    """Operation counts per layer and total for one forward pass."""
    per_layer = {}
    for layer in graph.layers:
        per_layer[layer.name] = layer.flops([graph.shape_of(i) for i in layer.inputs])
    return FlopCounts(
        per_layer=per_layer,
        total_macs=sum(m for m, _ in per_layer.values()),
        total_elementwise=sum(e for _, e in per_layer.values()),
    )


def count_params(graph: LayerGraph) -> int:
    """Total number of learnable scalars, affine norm parameters included."""
    return sum(int(p.size) for l in graph.layers for p in l.params().values())


def zero_gradients(graph: LayerGraph) -> Gradients:
    return {
        name: {k: np.zeros_like(v) for k, v in params.items()}
        for name, params in graph.params().items()
    }


def gradients_congruent(graph: LayerGraph, grads: Gradients) -> bool:
    """True if grads has exactly the graph's parameter arrays, shape for shape."""
    params = graph.params()
    if set(grads) - set(params):
        return False
    for name, by_key in grads.items():
        if set(by_key) - set(params[name]):
            return False
        for key, g in by_key.items():
            if g.shape != params[name][key].shape:
                return False
    return True
