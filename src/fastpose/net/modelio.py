"""Model serialization: a JSON manifest plus a raw little-endian float32 blob.

The manifest stores the graph structure (layer kinds, wiring, structural
config) and, per parameter, an element offset and shape into the sidecar
weights file. Weights are always written as '<f4' so files round-trip
identically across platforms.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..datio import _need
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


def _build_layer(entry: dict, weights: np.ndarray, where: str):
    kind = _need(entry, "kind", where)
    if kind not in LAYER_KINDS:
        raise UnsupportedFormat(f"{where}: unknown layer kind {kind!r}")
    name = _need(entry, "name", where)
    inputs = _need(entry, "inputs", where)
    config = entry.get("config", {})
    refs = entry.get("params", {})
    for key, value in (("config", config), ("params", refs)):
        if not isinstance(value, dict):
            raise SchemaViolation(f"{where}.{key}", "must be a JSON object")
    params = {}
    for key, ref in refs.items():
        off = int(_need(ref, "offset", f"{where}.params.{key}"))
        shape = tuple(int(d) for d in _need(ref, "shape", f"{where}.params.{key}"))
        size = int(np.prod(shape)) if shape else 1
        if off < 0 or off + size > weights.size:
            raise SchemaViolation(f"{where}.params.{key}", "offset/shape outside weights file")
        params[key] = weights[off : off + size].reshape(shape).astype(np.float32)

    cls = LAYER_KINDS[kind]
    args = [_need(params, key, f"{where}.params") for key in cls.param_names]
    if kind == "conv2d":
        return Conv2D(name, inputs, *args,
                      stride=int(config.get("stride", 1)), padding=int(config.get("padding", 0)))
    if kind == "groupnorm":
        return GroupNorm(name, inputs, *args,
                         group_size=int(_need(config, "group_size", where)), eps=float(config.get("eps", 1e-5)))
    if kind == "concat":
        ranges = [tuple(r) if r is not None else None for r in config.get("ranges", [])]
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
    weights_file = path.parent / _need(manifest, "weights_file", "$")
    weights = np.frombuffer(weights_file.read_bytes(), dtype="<f4")
    input_shape = tuple(int(d) for d in _need(manifest, "input_shape", "$"))
    entries = _need(manifest, "layers", "$")
    if not isinstance(entries, list):
        raise SchemaViolation("$.layers", "must be a list")
    layers = [_build_layer(e, weights, f"$.layers[{i}]") for i, e in enumerate(entries)]
    return LayerGraph(input_shape, layers, output=manifest.get("output"), meta=manifest.get("meta", {}))
