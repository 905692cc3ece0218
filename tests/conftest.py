"""Shared randomized-geometry helpers.

Plain functions rather than fixtures so tests can call them with their own
generators and keep every case seed-addressable.
"""

import tracemalloc
from collections import Counter

import numpy as np
import pytest

from fastpose import geom
from fastpose.geom import CameraIntrinsics, Pose, make_model
from fastpose.net import (
    ConcatChannels,
    Conv2D,
    Dense,
    Flatten,
    GroupNorm,
    LayerGraph,
    ReLU,
    Upsample2xNearest,
)
from fastpose.net.layers import LAYER_KINDS


def random_rotation(gen: np.random.Generator) -> np.ndarray:
    q, _ = np.linalg.qr(gen.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_pose(gen: np.random.Generator, z_range=(200.0, 1500.0), xy_span=20.0) -> Pose:
    t = np.array([
        gen.uniform(-xy_span, xy_span),
        gen.uniform(-xy_span, xy_span),
        gen.uniform(*z_range),
    ])
    return Pose(random_rotation(gen), t)


def random_model(gen: np.random.Generator, max_vertices=12, max_symmetries=4, span=30.0):
    """Random point-cloud model; total symmetry count stays <= max_symmetries
    because make_model prepends the identity."""
    n = int(gen.integers(1, max_vertices + 1))
    verts = gen.uniform(-span, span, size=(n, 3))
    extra = tuple(
        Pose(random_rotation(gen), gen.uniform(-5.0, 5.0, 3))
        for _ in range(int(gen.integers(0, max_symmetries)))
    )
    return make_model(verts, symmetries=extra, symmetric_flag=bool(gen.integers(0, 2)))


def random_mesh(gen: np.random.Generator, max_vertices=10, max_triangles=8, span=40.0):
    """Random triangle soup for render tests."""
    n = int(gen.integers(3, max_vertices + 1))
    verts = gen.uniform(-span, span, size=(n, 3))
    tris = np.array([
        gen.choice(n, size=3, replace=False)
        for _ in range(int(gen.integers(1, max_triangles + 1)))
    ])
    return make_model(verts, tris)


def peak_traced_bytes(fn) -> int:
    """Peak bytes allocated (numpy buffers included) while `fn()` runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def diameter_calls(monkeypatch) -> list[int]:
    """Vertex count of every geom._pairwise_diameter call made during the test."""
    calls = []
    original = geom._pairwise_diameter

    def counting(vertices):
        calls.append(len(vertices))
        return original(vertices)

    monkeypatch.setattr(geom, "_pairwise_diameter", counting)
    return calls


@pytest.fixture
def layer_forward_calls(monkeypatch) -> Counter:
    """Number of forward calls per layer object made during the test."""
    calls = Counter()
    for cls in LAYER_KINDS.values():

        def counting(self, xs, original=cls.forward):
            calls[self] += 1
            return original(self, xs)

        monkeypatch.setattr(cls, "forward", counting)
    return calls


def small_camera(width=32, height=24, fx=45.0, fy=50.0) -> CameraIntrinsics:
    return CameraIntrinsics(fx=fx, fy=fy, cx=width / 2.0, cy=height / 2.0,
                            width=width, height=height)


def all_kinds_graph(seed: int) -> LayerGraph:
    """Small float64 graph containing every layer kind."""
    gen = np.random.default_rng(seed)

    def rand(*shape):
        return (0.5 * gen.standard_normal(shape)).astype(np.float64)

    layers = [
        Conv2D("conv1", ["@input"], rand(4, 2, 3, 3), rand(4), padding=1),
        GroupNorm("gn1", ["conv1"], 1.0 + 0.1 * rand(4), 0.1 * rand(4), group_size=2),
        ReLU("relu1", ["gn1"]),
        ConcatChannels("cat", ["relu1", "relu1"], ranges=[(0, 2), None]),
        Conv2D("conv2", ["cat"], rand(2, 6, 1, 1), rand(2)),
        Upsample2xNearest("up", ["conv2"]),
        Flatten("flat", ["up"]),
        Dense("dense", ["flat"], rand(3, 288), rand(3)),
    ]
    return LayerGraph((2, 6, 6), layers, output="dense")
