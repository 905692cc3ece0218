"""Rigid-body poses, pinhole projection, and triangle-mesh geometry.

Conventions: all lengths in millimeters, image-plane quantities in pixels.
Projected coordinates are continuous, with (0, 0) at the center of the
top-left pixel (a point projecting to (c, r) lands on the center of pixel
row r, column c).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInput,
    EmptyModel,
    IndexOutOfRange,
    InvalidRotation,
    NonPositiveDepth,
)

ROTATION_TOL = 1e-6
DIAMETER_RTOL = 1e-6
_BLOCK_ROWS = 128  # building a distance block holds 16 * _BLOCK_ROWS * len(b) bytes


def _array(value, shape, name: str) -> np.ndarray:
    arr = np.array(value, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def is_rotation(matrix: np.ndarray, tol: float = ROTATION_TOL) -> bool:
    """True if `matrix` is orthonormal with determinant +1 within `tol`."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape != (3, 3) or not np.all(np.isfinite(m)):
        return False
    if np.max(np.abs(m.T @ m - np.eye(3))) > tol:
        return False
    return abs(np.linalg.det(m) - 1.0) <= tol


@dataclass(frozen=True)
class Pose:
    """Rigid transform x -> rotation @ x + translation.

    The rotation must be orthonormal with determinant +1 within 1e-6;
    invalid matrices are rejected, never silently re-orthogonalized.
    """

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = _array(self.rotation, (3, 3), "rotation")
        t = _array(self.translation, (3,), "translation")
        if not is_rotation(r):
            raise InvalidRotation("rotation is not orthonormal with det +1 within 1e-6")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.eye(3), np.zeros(3))

    def compose(self, other: "Pose") -> "Pose":
        """self after other: (self.compose(other))(x) == self(other(x))."""
        return Pose(self.rotation @ other.rotation, self.rotation @ other.translation + self.translation)

    def inverse(self) -> "Pose":
        rt = self.rotation.T
        return Pose(rt, -rt @ self.translation)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply the transform to an (n, 3) array of points."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def is_identity(self, tol: float = ROTATION_TOL) -> bool:
        return (
            np.max(np.abs(self.rotation - np.eye(3))) <= tol
            and np.max(np.abs(self.translation)) <= tol
        )


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole camera: focal lengths and principal point in px."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if self.width < 1 or self.height < 1:
            raise ValueError("image size must be at least 1x1")


@dataclass(frozen=True)
class ObjectModel:
    """Triangle mesh with diameter and a discrete symmetry set.

    A None diameter is computed (EmptyModel without vertices), a stated one
    checked within DIAMETER_RTOL (a vertex-less mesh counts as diameter 0);
    `symmetries` always contains the identity; `symmetric_flag` selects the
    closest-point metric variant over the exact-correspondence one.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    diameter: float | None = None
    symmetries: tuple[Pose, ...] = field(default=(Pose.identity(),))
    symmetric_flag: bool = False

    def __post_init__(self):
        v = np.array(self.vertices, dtype=np.float64).reshape(-1, 3)
        t = np.array(self.triangles, dtype=np.int64).reshape(-1, 3)
        v.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "symmetries", tuple(self.symmetries))
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise IndexOutOfRange("triangle index outside vertex range")
        d = _pairwise_diameter(v) if len(v) or self.diameter is None else 0.0
        if self.diameter is None:
            object.__setattr__(self, "diameter", d)
        elif abs(self.diameter - d) > DIAMETER_RTOL * max(d, 1.0):
            raise ValueError(f"stated diameter {self.diameter} != computed {d}")
        if not any(s.is_identity() for s in self.symmetries):
            raise ValueError("symmetry set must contain the identity")


def make_model(
    vertices,
    triangles=(),
    symmetries: tuple[Pose, ...] = (),
    symmetric_flag: bool = False,
    diameter: float | None = None,
) -> ObjectModel:
    """Build an ObjectModel (see there for `diameter`), inserting the identity symmetry."""
    syms = tuple(symmetries)
    if not any(s.is_identity() for s in syms):
        syms = (Pose.identity(),) + syms
    return ObjectModel(vertices, triangles, diameter, syms, symmetric_flag)


def _sq_distance_blocks(a: np.ndarray, b: np.ndarray):
    """Squared distances from each block of `_BLOCK_ROWS` rows of `a` to every
    row of `b`, summed dx*dx + dy*dy + dz*dz from left to right."""
    (ax, ay, az), (bx, by, bz) = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    for start in range(0, len(a), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        d2 = np.subtract.outer(ax[rows], bx)
        d2 *= d2
        term = np.subtract.outer(ay[rows], by)
        term *= term
        d2 += term
        np.subtract.outer(az[rows], bz, out=term)
        term *= term
        d2 += term
        del term  # the caller's previous block is still alive while the next is built
        yield d2


def _pairwise_diameter(vertices: np.ndarray) -> float:
    if len(vertices) == 0:
        raise EmptyModel("model has no vertices")
    return float(np.sqrt(np.max([d2.max() for d2 in _sq_distance_blocks(vertices, vertices)])))


def project_point(camera: CameraIntrinsics, x) -> np.ndarray:
    """Pinhole projection of a camera-space point with z > 0."""
    p = np.asarray(x, dtype=np.float64)
    if p[2] <= 0:
        raise NonPositiveDepth(f"point depth {p[2]} <= 0")
    return np.array([camera.fx * p[0] / p[2] + camera.cx, camera.fy * p[1] / p[2] + camera.cy])


def project_points(camera: CameraIntrinsics, points: np.ndarray) -> np.ndarray:
    """Vectorized pinhole projection of an (n, 3) array; every z must be > 0."""
    pts = np.asarray(points, dtype=np.float64)
    z = pts[:, 2]
    if np.any(z <= 0):
        raise NonPositiveDepth("at least one point has depth <= 0")
    return np.stack([camera.fx * pts[:, 0] / z + camera.cx, camera.fy * pts[:, 1] / z + camera.cy], axis=1)


def rot6d_to_matrix(v) -> np.ndarray:
    """Map a 6-vector to a rotation matrix by Gram-Schmidt.

    The first three components give the first column; the second three are
    orthogonalized against it; the third column is their cross product.
    """
    a = np.asarray(v, dtype=np.float64).reshape(6)
    a1, a2 = a[:3], a[3:]
    n1 = np.linalg.norm(a1)
    if n1 < 1e-12:
        raise DegenerateInput("first 3-vector has vanishing norm")
    b1 = a1 / n1
    r = a2 - np.dot(b1, a2) * b1
    n2 = np.linalg.norm(r)
    if n2 < 1e-12:
        raise DegenerateInput("second 3-vector is parallel to the first")
    b2 = r / n2
    b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=1)
