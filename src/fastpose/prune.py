"""Structured filter pruning with group-aligned L1 ranking.

A prune plan names conv layers and the output channels to delete from each.
Channels are always removed in whole groups matching the group size of the
conv's group-norm consumer, so normalization statistics stay well defined.
Applying a plan rebuilds the graph: conv rows and biases go away, and the
removal propagates forward through norm/activation/upsample layers into
every consumer (conv input columns, norm affine terms, dense columns over
flattened positions, concat channel ranges).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistentPlan, InvalidConfig, TooAggressive
from .net.graph import LayerGraph
from .net.layers import ConcatChannels, Conv2D, Dense, Flatten, GroupNorm, ReLU, Upsample2xNearest
from .net.toy import HEAD_GROUP, PNP_GROUP

PLAN_FORMAT = "fastpose-prune-plan"
PLAN_VERSION = 1

TARGETS = ("head", "pnp", "both")
_PREFIXES = {"head": ("head.",), "pnp": ("pnp.",), "both": ("head.", "pnp.")}


@dataclass(frozen=True)
class PruneConfig:
    target: str = "both"
    d_head: int = 0
    d_pnp: int = 0

    def __post_init__(self):
        if self.target not in TARGETS:
            raise InvalidConfig(f"target must be one of {TARGETS}, got {self.target!r}")
        if self.d_head < 0 or self.d_pnp < 0:
            raise InvalidConfig("prune degrees must be >= 0")


@dataclass(frozen=True)
class PrunePlan:
    """Per-conv sets of output channels to remove (sorted, unique)."""

    removed: dict[str, tuple[int, ...]] = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for name, channels in self.removed.items():
            chans = sorted(set(int(c) for c in channels))
            if chans and chans[0] < 0:
                raise InconsistentPlan(f"{name}: negative channel index")
            if chans:
                clean[name] = tuple(chans)
        object.__setattr__(self, "removed", clean)

    @property
    def is_empty(self) -> bool:
        return not self.removed

    def to_dict(self) -> dict:
        return {
            "format": PLAN_FORMAT,
            "version": PLAN_VERSION,
            "removed": {name: list(chans) for name, chans in sorted(self.removed.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PrunePlan":
        if d.get("format") != PLAN_FORMAT or d.get("version") != PLAN_VERSION:
            raise InconsistentPlan("not a recognized prune plan document")
        removed = d.get("removed", {})
        if not isinstance(removed, dict):
            raise InconsistentPlan("'removed' must map layer names to channel lists")
        return cls({str(k): tuple(int(c) for c in v) for k, v in removed.items()})


def filter_l1_norms(weight: np.ndarray) -> np.ndarray:
    """L1 norm of each output filter's (in, k, k) slice; bias excluded."""
    return np.abs(weight).reshape(weight.shape[0], -1).sum(axis=1)


def rank_filters_l1(weight: np.ndarray) -> np.ndarray:
    """Filter indices from smallest to largest L1 norm; ties keep lower index first."""
    return np.argsort(filter_l1_norms(weight), kind="stable")


def find_prunable(graph: LayerGraph, prefixes: tuple[str, ...] = ("head.", "pnp.")) -> list[tuple[Conv2D, int]]:
    """Convs under the given name prefixes whose consumers are all group norms.

    Returns (conv, group granularity) pairs in graph order. Convs feeding the
    graph output directly, or any non-norm consumer, are not prunable.
    """
    out = []
    for layer in graph.layers:
        if not isinstance(layer, Conv2D) or not layer.name.startswith(prefixes):
            continue
        consumers = graph.consumers(layer.name)
        if not consumers or layer.name == graph.output:
            continue
        if not all(isinstance(c, GroupNorm) for c in consumers):
            continue
        sizes = {c.group_size for c in consumers}
        if len(sizes) != 1:
            continue
        out.append((layer, sizes.pop()))
    return out


def _select_groups(weight: np.ndarray, group_size: int, degree: int, name: str) -> tuple[int, ...]:
    n_groups = weight.shape[0] // group_size
    if degree >= n_groups:
        raise TooAggressive(f"{name}: removing {degree} of {n_groups} groups leaves nothing")
    scores = filter_l1_norms(weight).reshape(n_groups, group_size).sum(axis=1)
    chosen = np.sort(np.argsort(scores, kind="stable")[:degree])
    channels = []
    for g in chosen:
        channels.extend(range(g * group_size, (g + 1) * group_size))
    return tuple(channels)


def plan_prune_layers(graph: LayerGraph, degrees: dict[str, int]) -> PrunePlan:
    """Plan removal of `degrees[name]` lowest-L1 groups from each named conv."""
    by_name = {conv.name: (conv, gsize) for conv, gsize in find_prunable(graph, prefixes=("",))}
    removed = {}
    for name, degree in degrees.items():
        if degree < 0:
            raise InvalidConfig(f"{name}: degree must be >= 0")
        if degree == 0:
            continue
        if name not in by_name:
            raise InconsistentPlan(f"{name}: not a prunable conv in this graph")
        conv, gsize = by_name[name]
        removed[name] = _select_groups(conv.weight, gsize, degree, name)
    return PrunePlan(removed)


def plan_prune(graph: LayerGraph, config: PruneConfig) -> PrunePlan:
    """Plan for the toy network: d_head groups off each head conv, d_pnp off each regressor conv."""
    degrees = {}
    for prefix in _PREFIXES[config.target]:
        degree = config.d_head if prefix == "head." else config.d_pnp
        convs = find_prunable(graph, prefixes=(prefix,))
        if degree and not convs:
            raise InconsistentPlan(f"no prunable convs under {prefix!r}")
        for conv, _ in convs:
            degrees[conv.name] = degree
    return plan_prune_layers(graph, degrees)


def _check_plan(graph: LayerGraph, plan: PrunePlan) -> None:
    prunable = {conv.name: (conv, gsize) for conv, gsize in find_prunable(graph, prefixes=("",))}
    for name, channels in plan.removed.items():
        if name not in prunable:
            raise InconsistentPlan(f"{name}: not a prunable conv in this graph")
        conv, gsize = prunable[name]
        if channels[-1] >= conv.out_channels:
            raise InconsistentPlan(f"{name}: channel {channels[-1]} out of range")
        groups = set(c // gsize for c in channels)
        # unique channels with exactly gsize members per touched group == whole groups
        if len(channels) != len(groups) * gsize:
            raise InconsistentPlan(f"{name}: removed channels are not whole groups of {gsize}")
        if conv.out_channels - len(channels) < gsize:
            raise TooAggressive(f"{name}: fewer than one group would remain")


def apply_prune(graph: LayerGraph, plan: PrunePlan) -> LayerGraph:
    """New graph with the planned channels removed and all consumers adjusted."""
    _check_plan(graph, plan)
    pruned = copy.deepcopy(graph)
    empty = np.zeros(0, dtype=np.int64)
    removed_of: dict[str, np.ndarray] = {}

    for layer in pruned.layers:
        rem_in = [removed_of.get(src, empty) for src in layer.inputs]
        if isinstance(layer, Conv2D):
            if rem_in[0].size:
                layer.weight = np.delete(layer.weight, rem_in[0], axis=1)
            own = np.asarray(plan.removed.get(layer.name, ()), dtype=np.int64)
            if own.size:
                layer.weight = np.delete(layer.weight, own, axis=0)
                layer.bias = np.delete(layer.bias, own)
            removed_of[layer.name] = own
        elif isinstance(layer, GroupNorm):
            rem = rem_in[0]
            if rem.size:
                layer.gamma = np.delete(layer.gamma, rem)
                layer.beta = np.delete(layer.beta, rem)
                if layer.gamma.size % layer.group_size:
                    raise InconsistentPlan(f"{layer.name}: remaining channels break group size {layer.group_size}")
            removed_of[layer.name] = rem
        elif isinstance(layer, (ReLU, Upsample2xNearest)):
            removed_of[layer.name] = rem_in[0]
        elif isinstance(layer, Flatten):
            rem = rem_in[0]
            if rem.size:
                _, h, w = graph.shape_of(layer.inputs[0])
                removed_of[layer.name] = (rem[:, None] * h * w + np.arange(h * w)).reshape(-1)
            else:
                removed_of[layer.name] = empty
        elif isinstance(layer, Dense):
            if rem_in[0].size:
                layer.weight = np.delete(layer.weight, rem_in[0], axis=1)
            removed_of[layer.name] = empty
        elif isinstance(layer, ConcatChannels):
            out_removed = []
            new_ranges = []
            offset = 0
            for i, src in enumerate(layer.inputs):
                c_orig = graph.shape_of(src)[0]
                rng = layer.ranges[i]
                a, b = (0, c_orig) if rng is None else (int(rng[0]), int(rng[1]))
                rem = rem_in[i]
                inside = rem[(rem >= a) & (rem < b)]
                out_removed.extend(offset + (inside - a))
                if rng is not None:
                    new_ranges.append((a - int((rem < a).sum()), b - int((rem < b).sum())))
                else:
                    new_ranges.append(None)
                offset += b - a
            for rng in new_ranges:
                if rng is not None and rng[0] >= rng[1]:
                    raise InconsistentPlan(f"{layer.name}: a channel range was pruned away entirely")
            layer.ranges = new_ranges
            removed_of[layer.name] = np.asarray(sorted(out_removed), dtype=np.int64)
        else:
            raise InconsistentPlan(f"{layer.name}: cannot propagate pruning through kind {layer.kind!r}")

        if layer.name == pruned.output and removed_of[layer.name].size:
            raise InconsistentPlan(f"{layer.name}: the graph output cannot be pruned")

    if "toy_config" in pruned.meta:
        tc = _pruned_toy_config(graph, plan, pruned.meta["toy_config"])
        if tc is None:
            del pruned.meta["toy_config"]
        else:
            pruned.meta["toy_config"] = tc
    pruned.validate()
    return pruned


def _pruned_toy_config(graph: LayerGraph, plan: PrunePlan, toy_config: dict) -> dict | None:
    """The ToyConfig dict describing `graph` pruned by `plan`, or None when no
    ToyConfig does: every prunable conv under a prefix must lose the same
    number of groups, and nothing outside the head and regressor is pruned."""
    if any(not name.startswith(("head.", "pnp.")) for name in plan.removed):
        return None
    tc = dict(toy_config)
    for prefix, key, group in (("head.", "d_head", HEAD_GROUP), ("pnp.", "d_pnp", PNP_GROUP)):
        lost = {len(plan.removed.get(conv.name, ())) // group for conv, _ in find_prunable(graph, (prefix,))}
        if len(lost) > 1:
            return None
        tc[key] = tc.get(key, 0) + sum(lost)
    return tc
