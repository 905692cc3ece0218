"""Builders for the toy pose-regression network used throughout the project.

The full graph is backbone -> geometric head -> pose regressor:

* backbone: three stride-2 3x3 conv blocks, 3x64x64 image down to 8x8 features.
* head: three upsample+conv blocks back to 64x64, then a 1x1 conv emitting
  region logits, a visible mask, an amodal mask, and 3 object coordinates.
* pose regressor: consumes the region and coordinate channels, three stride-2
  conv blocks down to 8x8, then dense layers to a 9-vector
  (6 rotation numbers + 3 translation numbers).

Head and regressor conv widths shrink in groups of 8 and 4 filters per unit
of their degree settings, which is what the pruning pipeline exploits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .. import rng
from ..errors import InvalidConfig
from .graph import LayerGraph
from .layers import (
    GRAPH_INPUT,
    ConcatChannels,
    Conv2D,
    Dense,
    Flatten,
    GroupNorm,
    ReLU,
    Upsample2xNearest,
)

HEAD_GROUP = 8
PNP_GROUP = 4
# the prunable modules: (layer name prefix, degree field of ToyConfig and PruneConfig, filters per group)
PRUNABLE_MODULES = (("head.", "d_head", HEAD_GROUP), ("pnp.", "d_pnp", PNP_GROUP))


@dataclass(frozen=True)
class ToyConfig:
    backbone_width: int = 64
    head_width: int = 256
    pnp_width: int = 128
    regions: int = 64
    d_head: int = 0
    d_pnp: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.regions < 1:
            raise InvalidConfig("regions must be >= 1")
        if self.backbone_width < HEAD_GROUP or self.backbone_width % HEAD_GROUP:
            raise InvalidConfig(f"backbone_width must be a positive multiple of {HEAD_GROUP}")
        if self.head_width < HEAD_GROUP or self.head_width % HEAD_GROUP:
            raise InvalidConfig(f"head_width must be a positive multiple of {HEAD_GROUP}")
        if self.pnp_width < PNP_GROUP or self.pnp_width % PNP_GROUP:
            raise InvalidConfig(f"pnp_width must be a positive multiple of {PNP_GROUP}")
        if self.d_head < 0 or self.d_pnp < 0:
            raise InvalidConfig("degrees must be >= 0")
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")
        if self.head_conv_width < HEAD_GROUP:
            raise InvalidConfig(f"d_head={self.d_head} leaves fewer than {HEAD_GROUP} head filters")
        if self.pnp_conv_width < PNP_GROUP:
            raise InvalidConfig(f"d_pnp={self.d_pnp} leaves fewer than {PNP_GROUP} regressor filters")

    @property
    def head_conv_width(self) -> int:
        """Width of the head's three 3x3 convs after removing d_head groups of 8."""
        return self.head_width - HEAD_GROUP * self.d_head

    @property
    def pnp_conv_width(self) -> int:
        """Width of the regressor's convs after removing d_pnp groups of 4."""
        return self.pnp_width - PNP_GROUP * self.d_pnp

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ToyConfig":
        """Config from a JSON object whose values are integers (bools excluded)."""
        if not isinstance(d, dict):
            raise InvalidConfig(f"config must be a JSON object, got {type(d).__name__}")
        extra = set(d) - set(cls.__dataclass_fields__)
        if extra:
            raise InvalidConfig(f"unknown config fields: {sorted(extra)}")
        for k, v in d.items():
            if type(v) is not int:
                raise InvalidConfig(f"config field {k!r} must be an integer, got {v!r}")
        return cls(**d)


@dataclass(frozen=True)
class HeadLayout:
    """Channel ranges (half-open) in the geometric head's output."""

    regions: int

    @property
    def region_logits(self) -> tuple[int, int]:
        # regions + 1: last bin means "no region".
        return (0, self.regions + 1)

    @property
    def visible_mask(self) -> tuple[int, int]:
        return (self.regions + 1, self.regions + 2)

    @property
    def amodal_mask(self) -> tuple[int, int]:
        return (self.regions + 2, self.regions + 3)

    @property
    def coordinates(self) -> tuple[int, int]:
        return (self.regions + 3, self.regions + 6)

    @property
    def total(self) -> int:
        return self.regions + 6

    @property
    def pose_input_ranges(self) -> list[tuple[int, int]]:
        """Channel slices the pose regressor consumes: regions + coordinates."""
        return [self.region_logits, self.coordinates]


_INIT_CHUNK = 1 << 15  # float64 draws per uniform() call: 256 KiB


def _uniform(gen: np.random.Generator, shape: tuple, fan_in: int) -> np.ndarray:
    """float32 U(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights. The float64 draws
    come in chunks, so a large weight (pnp.fc1's is 2M numbers) never gets a
    float64 copy; the stream, and so every value, is that of one uniform() call."""
    bound = 1.0 / math.sqrt(fan_in)
    out = np.empty(shape, dtype=np.float32)
    flat = out.reshape(-1)
    for start in range(0, flat.size, _INIT_CHUNK):
        flat[start : start + _INIT_CHUNK] = gen.uniform(-bound, bound, size=min(_INIT_CHUNK, flat.size - start))
    return out


def _conv(name: str, src: str, cin: int, cout: int, k: int, stride: int, padding: int, seed: int) -> Conv2D:
    gen = rng.derive(seed, f"init/{name}")
    fan_in = cin * k * k
    return Conv2D(
        name,
        [src],
        weight=_uniform(gen, (cout, cin, k, k), fan_in),
        bias=_uniform(gen, (cout,), fan_in),
        stride=stride,
        padding=padding,
    )


def _dense(name: str, src: str, n_in: int, n_out: int, seed: int) -> Dense:
    gen = rng.derive(seed, f"init/{name}")
    return Dense(name, [src], weight=_uniform(gen, (n_out, n_in), n_in), bias=_uniform(gen, (n_out,), n_in))


def _gn(name: str, src: str, channels: int, group_size: int) -> GroupNorm:
    return GroupNorm(name, [src], gamma=np.ones(channels, np.float32), beta=np.zeros(channels, np.float32), group_size=group_size)


def _backbone_layers(cfg: ToyConfig, src: str) -> list:
    layers = []
    cin = 3
    for i in (1, 2, 3):
        conv = f"backbone.conv{i}"
        layers.append(_conv(conv, src, cin, cfg.backbone_width, k=3, stride=2, padding=1, seed=cfg.seed))
        layers.append(_gn(f"backbone.gn{i}", conv, cfg.backbone_width, HEAD_GROUP))
        layers.append(ReLU(f"backbone.relu{i}", [f"backbone.gn{i}"]))
        src = f"backbone.relu{i}"
        cin = cfg.backbone_width
    return layers


def _head_layers(cfg: ToyConfig, src: str) -> list:
    layout = HeadLayout(cfg.regions)
    width = cfg.head_conv_width
    layers = []
    cin = cfg.backbone_width
    for i in (1, 2, 3):
        up = f"head.up{i}"
        conv = f"head.conv{i}"
        layers.append(Upsample2xNearest(up, [src]))
        layers.append(_conv(conv, up, cin, width, k=3, stride=1, padding=1, seed=cfg.seed))
        layers.append(_gn(f"head.gn{i}", conv, width, HEAD_GROUP))
        layers.append(ReLU(f"head.relu{i}", [f"head.gn{i}"]))
        src = f"head.relu{i}"
        cin = width
    layers.append(_conv("head.out", src, width, layout.total, k=1, stride=1, padding=0, seed=cfg.seed))
    return layers


def _pnp_layers(cfg: ToyConfig, src: str) -> list:
    layout = HeadLayout(cfg.regions)
    width = cfg.pnp_conv_width
    layers = [ConcatChannels("pnp.concat", [src, src], ranges=layout.pose_input_ranges)]
    cin = layout.total - 2  # region logits + coordinates, masks dropped
    prev = "pnp.concat"
    for i in (1, 2, 3):
        conv = f"pnp.conv{i}"
        layers.append(_conv(conv, prev, cin, width, k=3, stride=2, padding=1, seed=cfg.seed))
        layers.append(_gn(f"pnp.gn{i}", conv, width, PNP_GROUP))
        layers.append(ReLU(f"pnp.relu{i}", [f"pnp.gn{i}"]))
        prev = f"pnp.relu{i}"
        cin = width
    layers.append(Flatten("pnp.flatten", [prev]))
    layers.append(_dense("pnp.fc1", "pnp.flatten", width * 8 * 8, 256, cfg.seed))
    layers.append(ReLU("pnp.relu4", ["pnp.fc1"]))
    layers.append(_dense("pnp.out", "pnp.relu4", 256, 9, cfg.seed))
    return layers


def build_toy_backbone(cfg: ToyConfig) -> LayerGraph:
    """3x64x64 image to backbone_width x 8x8 features."""
    layers = _backbone_layers(cfg, GRAPH_INPUT)
    return LayerGraph((3, 64, 64), layers, meta={"module": "backbone", "toy_config": cfg.to_dict()})


def build_toy_head(cfg: ToyConfig) -> LayerGraph:
    """backbone_width x 8x8 features to (regions+6) x 64x64 geometric maps."""
    layers = _head_layers(cfg, GRAPH_INPUT)
    return LayerGraph((cfg.backbone_width, 8, 8), layers, meta={"module": "head", "toy_config": cfg.to_dict()})


def build_toy_pnp(cfg: ToyConfig) -> LayerGraph:
    """(regions+6) x 64x64 geometric maps to the 9-number pose vector."""
    layout = HeadLayout(cfg.regions)
    layers = _pnp_layers(cfg, GRAPH_INPUT)
    return LayerGraph((layout.total, 64, 64), layers, meta={"module": "pnp", "toy_config": cfg.to_dict()})


def build_toy_gdrn(cfg: ToyConfig) -> LayerGraph:
    """Full image-to-pose graph: backbone, geometric head, pose regressor."""
    layers = _backbone_layers(cfg, GRAPH_INPUT)
    layers += _head_layers(cfg, "backbone.relu3")
    layers += _pnp_layers(cfg, "head.out")
    return LayerGraph((3, 64, 64), layers, meta={"module": "full", "toy_config": cfg.to_dict()})
