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
_BLOCK_ELEMS = 1 << 15  # distances per block: a 256 KiB block and its 256 KiB term stay in the L2 cache
_SCREEN_MIN = 48  # matrices from which is_rotation screens a stack before the exact check
_SCREEN_MARGIN = 1e-10  # is_rotation's screen band around tol: over 30 times the rounding it covers


def _array(value, shape, name: str) -> np.ndarray:
    arr = np.array(value, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    arr.setflags(write=False)
    return arr


def _is_rotation_exact(m: np.ndarray, tol: float) -> np.ndarray:
    """is_rotation's definition: the largest |m^T m - I| entry, by matmul,
    and |det(m) - 1|, by np.linalg.det, both at most `tol`."""
    finite = np.isfinite(m).all(axis=(-2, -1))
    m = np.where(finite[..., None, None], m, 0.0)  # keeps inf/nan out of matmul and det
    ortho = np.abs(np.swapaxes(m, -1, -2) @ m - np.eye(3)).max(axis=(-2, -1)) <= tol
    return finite & ortho & (np.abs(np.linalg.det(m) - 1.0) <= tol)


def is_rotation(matrix: np.ndarray, tol: float = ROTATION_TOL) -> np.ndarray:
    """Per 3x3 matrix of a (..., 3, 3) stack: finite, orthonormal and with
    determinant +1 within `tol`, as _is_rotation_exact decides it.

    A stack of at least _SCREEN_MIN matrices, at 0 < tol < 1, is screened
    first from its entries laid out as (S,) rows: the Gram entries summed
    explicitly and the determinant by cofactors along the first row. A
    matrix whose screened deviations are all at most tol - _SCREEN_MARGIN
    is accepted, one with any above tol + _SCREEN_MARGIN (or NaN) is
    rejected, and only those in between take the matmul-and-det check.

    The screen decides as the definition does. With tol < 1, a matrix with
    an entry above 2 in magnitude, or a non-finite one, is rejected by
    both: its Gram diagonal is NaN, infinite or above 3 either way. For
    entries at most 2 in magnitude, a Gram entry is a sum of three products
    of at most 4, so any evaluation order, with or without fused
    multiply-adds, lands within gamma_3 * 12 < 5e-15 of the true sum;
    subtracting the identity adds half an ulp of at most 13, and an
    underflow at most 1e-307. So the two Gram deviations lie within 1.2e-14
    of each other. The cofactor expansion lands within gamma_5 * 48 < 3e-14
    of the true determinant. LAPACK's LU with partial pivoting has pivots
    of at most 8 and a backward error of at most gamma_3 * 24 < 1e-14 per
    entry (Higham, Accuracy and Stability of Numerical Algorithms, Thm.
    9.3), which moves the determinant by less than 9 * 8 * 1e-14 < 1e-12
    through cofactors of at most 8; np.linalg.det multiplies the pivots
    directly or through their logarithms, which adds less than 1e-12. So
    the two determinant deviations lie within 3e-12 of each other, and
    _SCREEN_MARGIN is over 30 times that; tol < 1 keeps the rounding of
    tol -+ _SCREEN_MARGIN below 2e-16. A smaller stack takes the definition
    alone, which costs less there than the screen's fixed number of array
    passes.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.size < 9 * _SCREEN_MIN or not 0.0 < tol < 1.0:
        return _is_rotation_exact(m, tol)
    stack = m.reshape(-1, 3, 3)
    a = np.ascontiguousarray(np.moveaxis(stack, 0, -1))  # a[r, c] is entry (r, c) of every matrix
    nxt = a[:, [1, 2, 0, 1]]  # column c + 1 at [:, c], column c + 2 at [:, c + 1]
    dev = np.empty((7,) + a.shape[2:])
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan entries give inf or nan deviations
        np.sum(a * a, axis=0, out=dev[:3])  # Gram (c, c)
        dev[:3] -= 1.0
        np.sum(a * nxt[:, :3], axis=0, out=dev[3:6])  # Gram (c, c + 1)
        cross = nxt[1, :3] * nxt[2, 1:]  # rows 1 x 2: the first row's cofactors
        cross -= nxt[1, 1:] * nxt[2, :3]
        np.sum(a[0] * cross, axis=0, out=dev[6])
        dev[6] -= 1.0
        dev = np.abs(dev, out=dev).max(axis=0)
    accept = dev <= tol - _SCREEN_MARGIN
    band = np.flatnonzero(~accept & (dev <= tol + _SCREEN_MARGIN))
    if len(band):
        accept[band] = _is_rotation_exact(stack[band], tol)
    return accept.reshape(m.shape[:-2])


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

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply the transform to an (n, 3) array of points."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation


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

    Vertices must be finite (else ValueError). A None diameter is computed
    (EmptyModel without vertices), a stated one checked within DIAMETER_RTOL
    (a vertex-less mesh counts as diameter 0).
    `symmetries` is a read-only (S, 3, 4) stack of finite [R | t] rows with
    rotations R (else InvalidRotation), one of them the identity within
    ROTATION_TOL (else ValueError). `symmetric_flag` selects the
    closest-point metric variant over the exact-correspondence one.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    diameter: float | None = None
    symmetries: np.ndarray = field(default_factory=lambda: np.eye(3, 4))
    symmetric_flag: bool = False

    def __post_init__(self):
        v = np.array(self.vertices, dtype=np.float64).reshape(-1, 3)
        t = np.array(self.triangles, dtype=np.int64).reshape(-1, 3)
        s = np.array(self.symmetries, dtype=np.float64).reshape(-1, 3, 4)
        for arr in (v, t, s):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "symmetries", s)
        if not (np.isfinite(s).all() and is_rotation(s[:, :, :3]).all()):
            raise InvalidRotation("symmetries must be finite with rotations orthonormal with det +1 within 1e-6")
        if not _has_identity(s):
            raise ValueError("symmetry set must contain the identity")
        if not np.isfinite(v).all():
            raise ValueError("vertex coordinates must be finite")
        if t.size and (t.min() < 0 or t.max() >= len(v)):
            raise IndexOutOfRange("triangle index outside vertex range")
        d = _pairwise_diameter(v) if len(v) or self.diameter is None else 0.0
        if self.diameter is None:
            object.__setattr__(self, "diameter", d)
        elif abs(self.diameter - d) > DIAMETER_RTOL * max(d, 1.0):
            raise ValueError(f"stated diameter {self.diameter} != computed {d}")


def _has_identity(symmetries: np.ndarray) -> bool:
    return bool((np.abs(symmetries - np.eye(3, 4)) <= ROTATION_TOL).all(axis=(1, 2)).any())


def make_model(
    vertices,
    triangles=(),
    symmetries=(),
    symmetric_flag: bool = False,
    diameter: float | None = None,
) -> ObjectModel:
    """Build an ObjectModel (see there for `diameter`) from symmetry rows that
    reshape to (-1, 3, 4), prepending the identity when it is missing."""
    syms = np.asarray(symmetries, dtype=np.float64).reshape(-1, 3, 4)
    if not _has_identity(syms):
        syms = np.concatenate([np.eye(3, 4)[None], syms])
    return ObjectModel(vertices, triangles, diameter, syms, symmetric_flag)


def _sq_distance_blocks(a: np.ndarray, b: np.ndarray, upper: bool = False):
    """Squared distances from each block of max(1, _BLOCK_ELEMS // len(b))
    rows of `a` to every row of `b`, summed dx*dx + dy*dy + dz*dz from left
    to right. With `upper`, a block only reaches the rows of `b` from its own
    first row on: for a == b, the upper triangle and the diagonal blocks."""
    (ax, ay, az), (bx, by, bz) = np.ascontiguousarray(a.T), np.ascontiguousarray(b.T)
    step = max(1, _BLOCK_ELEMS // len(b))
    for start in range(0, len(a), step):
        rows, cols = slice(start, start + step), slice(start if upper else 0, None)
        d2 = np.subtract.outer(ax[rows], bx[cols])
        d2 *= d2
        term = np.subtract.outer(ay[rows], by[cols])
        term *= term
        d2 += term
        np.subtract.outer(az[rows], bz[cols], out=term)
        term *= term
        d2 += term
        del term  # the caller's previous block is still alive while the next is built
        yield d2


def _pairwise_diameter(vertices: np.ndarray) -> float:
    """Largest vertex distance. (a-b)**2 == (b-a)**2 exactly, so the upper
    triangle holds the maximum of the full matrix, bit for bit.

    Only candidates are scanned. With r the distance from the centroid (any
    fixed point would do), |a - b| <= r_a + r_b <= r_a + max(r), and `best`,
    the distance from the vertex at max(r) to its farthest vertex, is a real
    pair's length; so a vertex with r_a + max(r) < best ends no longer pair.
    The kept pairs' squared distances are the same floats, so the maximum is
    bit-identical to the full scan. Each computed length is within a few
    ulps of the true one while no square underflows or overflows; the cut
    at best * (1 - 1e-9) leaves a far wider margin, and outside
    1e-100 < best < 1e100 every vertex is kept. A mesh whose full scan fits
    in one block skips the filter, which would cost more than it saves.
    """
    if len(vertices) == 0:
        raise EmptyModel("model has no vertices")
    if len(vertices) ** 2 > _BLOCK_ELEMS:
        r = np.sqrt(np.square(vertices - vertices.mean(axis=0)).sum(axis=1))
        best = np.sqrt(np.square(vertices - vertices[np.argmax(r)]).sum(axis=1).max())
        if 1e-100 < best < 1e100:
            vertices = vertices[r + r.max() >= best * (1.0 - 1e-9)]
    return float(np.sqrt(max(d2.max() for d2 in _sq_distance_blocks(vertices, vertices, upper=True))))


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
