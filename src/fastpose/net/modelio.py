"""Model serialization: a JSON manifest plus a raw little-endian float32 blob.

The manifest stores the graph structure (layer kinds, wiring, structural
config) and, per parameter, an element offset and shape into the sidecar
weights file. Weights are always written as '<f4' so files round-trip
identically across platforms.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ..datio import _finite_number, _need
from ..errors import SchemaViolation, UnsupportedFormat
from .graph import LayerGraph
from .layers import LAYER_KINDS, ConcatChannels, Conv2D, GroupNorm

FORMAT_NAME = "fastpose-model"
FORMAT_VERSION = 1


def save_model(graph: LayerGraph, path: str | Path) -> Path:
    """Write manifest JSON at `path` and weights beside it; returns the path."""
    path = Path(path)
    weights_name = path.stem + ".weights"
    chunks: list[np.ndarray] = []
    offset = 0
    layer_entries = []
    for layer in graph.layers:
        entry = {
            "name": layer.name,
            "kind": layer.kind,
            "inputs": list(layer.inputs),
            "config": layer.config(),
            "params": {},
        }
        for key in sorted(layer.params()):
            value = layer.params()[key]
            flat = np.ascontiguousarray(value, dtype="<f4")
            entry["params"][key] = {"offset": offset, "shape": list(value.shape)}
            chunks.append(flat.reshape(-1))
            offset += int(value.size)
        layer_entries.append(entry)
    manifest = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "input_shape": list(graph.input_shape),
        "output": graph.output,
        "meta": graph.meta,
        "weights_file": weights_name,
        "layers": layer_entries,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path.parent / weights_name, "wb") as f:
        for flat in chunks:  # written in place, no concatenated copy of the weights
            f.write(flat)
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _ints(value, where: str, n: int | None = None) -> tuple[int, ...]:
    """A JSON list of integers (a bool or a float is none), n of them if given."""
    if not isinstance(value, list) or any(type(v) is not int for v in value) or n not in (None, len(value)):
        raise SchemaViolation(where, f"expected a list of {'' if n is None else f'{n} '}integers, got {value!r}")
    return tuple(value)


def _build_layer(entry: dict, weights: np.ndarray, where: str):
    kind = _need(entry, "kind", where, str)
    if kind not in LAYER_KINDS:
        raise UnsupportedFormat(f"{where}: unknown layer kind {kind!r}")
    name = _need(entry, "name", where, str)
    inputs = _need(entry, "inputs", where, list)
    if not all(isinstance(i, str) for i in inputs) or (kind != "concat" and len(inputs) != 1):
        raise SchemaViolation(f"{where}.inputs", f"expected a list of layer names, one for a {kind} layer")
    entry = {"config": {}, "params": {}, **entry}
    config = _need(entry, "config", where, dict)
    refs = _need(entry, "params", where, dict)
    params = {}
    for key, ref in refs.items():
        off = _need(ref, "offset", f"{where}.params.{key}", int)
        shape = _ints(_need(ref, "shape", f"{where}.params.{key}"), f"{where}.params.{key}.shape")
        size = math.prod(shape)
        if off < 0 or min(shape, default=0) < 0 or off + size > weights.size:
            raise SchemaViolation(f"{where}.params.{key}", "offset/shape outside weights file")
        params[key] = weights[off : off + size].reshape(shape).astype(np.float32)

    cls = LAYER_KINDS[kind]
    args = [_need(params, key, f"{where}.params") for key in cls.param_names]
    config = {"stride": 1, "padding": 0, "eps": 1e-5, "ranges": [], **config}  # the defaults of absent keys
    where = f"{where}.config"
    if kind == "conv2d":
        return Conv2D(name, inputs, *args, stride=_need(config, "stride", where, int),
                      padding=_need(config, "padding", where, int))
    if kind == "groupnorm":
        eps = _need(config, "eps", where, (int, float))
        if not (_finite_number(eps) and eps > 0):
            raise SchemaViolation(f"{where}.eps", f"must be a positive finite number, got {eps!r}")
        return GroupNorm(name, inputs, *args, group_size=_need(config, "group_size", where, int), eps=eps)
    if kind == "concat":
        ranges = _need(config, "ranges", where, list)
        ranges = [r if r is None else _ints(r, f"{where}.ranges[{i}]", 2) for i, r in enumerate(ranges)]
        return ConcatChannels(name, inputs, ranges=ranges or None)
    # dense / relu / upsample2x / flatten carry no config
    return cls(name, inputs, *args)


def load_model(path: str | Path) -> LayerGraph:
    path = Path(path)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise UnsupportedFormat(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(manifest, dict):
        raise SchemaViolation("$", "manifest must be a JSON object")
    if manifest.get("format") != FORMAT_NAME:
        raise UnsupportedFormat(f"{path}: format is not {FORMAT_NAME!r}")
    if manifest.get("version") != FORMAT_VERSION:
        raise UnsupportedFormat(f"{path}: unsupported version {manifest.get('version')!r}")
    weights_file = path.parent / _need(manifest, "weights_file", "$", str)
    weights = np.frombuffer(weights_file.read_bytes(), dtype="<f4")
    input_shape = _ints(_need(manifest, "input_shape", "$"), "$.input_shape")
    entries = _need(manifest, "layers", "$", list)
    layers = [_build_layer(e, weights, f"$.layers[{i}]") for i, e in enumerate(entries)]
    manifest = {"meta": {}, **manifest}
    return LayerGraph(input_shape, layers, output=manifest.get("output"), meta=_need(manifest, "meta", "$", dict))
