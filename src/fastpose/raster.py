"""Software z-buffer rasterizer producing per-pixel depth and visibility maps.

A pixel is covered when its center (integer coordinates, matching the
projection convention in geom) lies inside the projected triangle, with the
top-left rule breaking ties on edges. Stored depth is camera-space z,
perspective-correct via 1/z interpolation. Triangles are clipped against a
near plane at 1 mm; anything fully behind it is discarded.

All triangles are rasterized in one array pass over their bounding-box
pixels, taken _CHUNK_PX at a time so memory stays bounded; each pixel keeps
the minimum depth over its covering triangles, which does not depend on the
order they are visited in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import CameraIntrinsics, ObjectModel, Pose

NEAR_MM = 1.0
_CHUNK_PX = 1 << 16  # bounding-box pixels per array pass, about 220 bytes of work arrays each


@dataclass(frozen=True)
class DistanceMap:
    """Per-pixel camera-space depth (mm, 0 = background) plus visibility mask."""

    width: int
    height: int
    depth: np.ndarray
    visible: np.ndarray

    def __post_init__(self):
        if self.depth.shape != (self.height, self.width) or self.visible.shape != self.depth.shape:
            raise ValueError("depth/visible shape must be (height, width)")
        if not np.array_equal(self.visible, self.depth > 0):
            raise ValueError("visible mask must equal depth > 0")
        self.depth.setflags(write=False)
        self.visible.setflags(write=False)

    @staticmethod
    def from_depth(depth: np.ndarray) -> "DistanceMap":
        d = np.asarray(depth, dtype=np.float64)
        return DistanceMap(d.shape[1], d.shape[0], d, d > 0)


def _clip_near(tri: np.ndarray, near: float) -> list[np.ndarray]:
    """Sutherland-Hodgman clip of a camera-space triangle against z >= near.

    Returns the clipped polygon fan-split into triangles (0, 1, or 2 of them).
    """
    out = []
    n = len(tri)
    for i in range(n):
        a, b = tri[i], tri[(i + 1) % n]
        a_in, b_in = a[2] >= near, b[2] >= near
        if a_in:
            out.append(a)
        if a_in != b_in:
            t = (near - a[2]) / (b[2] - a[2])
            out.append(a + t * (b - a))
    if len(out) < 3:
        return []
    return [np.array([out[0], out[i], out[i + 1]]) for i in range(1, len(out) - 1)]


def _edge(ax, ay, bx, by, px, py):
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _owns(ax, ay, bx, by):
    """Top-left tie rule (y grows downward): a horizontal edge running +x is
    a top edge, an upward edge is a left edge; only those own their pixels."""
    dx, dy = bx - ax, by - ay
    return ((dy == 0.0) & (dx > 0.0)) | (dy < 0.0)


def render_distance_map(model: ObjectModel, pose: Pose, camera: CameraIntrinsics) -> DistanceMap:
    """Rasterize the posed mesh into a DistanceMap under `camera`."""
    h, w = camera.height, camera.width
    zbuf = np.full(h * w, np.inf)
    cam_pts = pose.transform(model.vertices) if len(model.vertices) else np.zeros((0, 3))
    tris = cam_pts[model.triangles]
    front = (tris[:, :, 2] >= NEAR_MM).all(axis=1)
    clipped = [piece for tri in tris[~front] for piece in _clip_near(tri, NEAR_MM)]
    _raster_triangles(np.concatenate([tris[front], np.reshape(clipped, (-1, 3, 3))]), camera, zbuf)

    depth = np.where(np.isfinite(zbuf), zbuf, 0.0).reshape(h, w)
    return DistanceMap(w, h, depth, depth > 0)


def _raster_triangles(tris: np.ndarray, camera: CameraIntrinsics, zbuf: np.ndarray) -> None:
    """Depth-test the (T, 3, 3) camera-space triangles, all at z >= NEAR_MM,
    into the flat (height * width) `zbuf`."""
    z = tris[:, :, 2]
    px = camera.fx * tris[:, :, 0] / z + camera.cx
    py = camera.fy * tris[:, :, 1] / z + camera.cy

    # consistent winding: make the doubled signed area positive
    area2 = _edge(px[:, 0], py[:, 0], px[:, 1], py[:, 1], px[:, 2], py[:, 2])
    flip = area2 < 0.0
    for a in (px, py, z):
        a[flip] = a[flip][:, [0, 2, 1]]
    area2 = np.abs(area2)

    x0 = np.maximum(np.ceil(px.min(axis=1)), 0.0)
    x1 = np.minimum(np.floor(px.max(axis=1)), camera.width - 1)
    y0 = np.maximum(np.ceil(py.min(axis=1)), 0.0)
    y1 = np.minimum(np.floor(py.max(axis=1)), camera.height - 1)
    keep = (area2 != 0.0) & (x0 <= x1) & (y0 <= y1)
    px, py, z, area2 = px[keep], py[keep], z[keep], area2[keep]
    x0, y0 = x0[keep].astype(np.int64), y0[keep].astype(np.int64)
    nx = x1[keep].astype(np.int64) - x0 + 1
    counts = nx * (y1[keep].astype(np.int64) - y0 + 1)
    owns = np.stack([_owns(px[:, a], py[:, a], px[:, b], py[:, b]) for a, b in ((1, 2), (2, 0), (0, 1))], axis=1)

    # pixel p of the concatenated bounding boxes belongs to triangle t when
    # starts[t] <= p < ends[t]; boxes are row-major
    ends = np.cumsum(counts)
    starts = ends - counts
    total = int(ends[-1]) if len(ends) else 0
    for lo in range(0, total, _CHUNK_PX):
        p = np.arange(lo, min(lo + _CHUNK_PX, total))
        t = np.searchsorted(ends, p, side="right")
        row, col = np.divmod(p - starts[t], nx[t])
        row += y0[t]
        col += x0[t]
        gx, gy = col.astype(np.float64), row.astype(np.float64)
        tx, ty = px[t], py[t]
        w0 = _edge(tx[:, 1], ty[:, 1], tx[:, 2], ty[:, 2], gx, gy)
        w1 = _edge(tx[:, 2], ty[:, 2], tx[:, 0], ty[:, 0], gx, gy)
        w2 = _edge(tx[:, 0], ty[:, 0], tx[:, 1], ty[:, 1], gx, gy)
        own = owns[t]
        cover = (
            ((w0 > 0) | ((w0 == 0) & own[:, 0]))
            & ((w1 > 0) | ((w1 == 0) & own[:, 1]))
            & ((w2 > 0) | ((w2 == 0) & own[:, 2]))
        )
        t, a2 = t[cover], area2[t[cover]]
        tz = z[t]
        inv_z = (w0[cover] / a2) / tz[:, 0] + (w1[cover] / a2) / tz[:, 1] + (w2[cover] / a2) / tz[:, 2]
        with np.errstate(divide="ignore"):
            depth = 1.0 / inv_z
        # a NaN or infinite depth never wins the depth test
        ok = np.isfinite(depth)
        np.minimum.at(zbuf, (row * camera.width + col)[cover][ok], depth[ok])


def write_pgm(dmap: DistanceMap, path) -> None:
    """Debug dump: 16-bit P2 PGM with depth rounded to whole millimeters."""
    q = np.clip(np.rint(dmap.depth), 0, 65535).astype(np.int64)
    lines = [f"P2\n{dmap.width} {dmap.height}\n65535"]
    lines += [" ".join(str(v) for v in row) for row in q]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
