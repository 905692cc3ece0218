"""Software z-buffer rasterizer producing per-pixel depth and visibility maps.

A pixel is covered when its center (integer coordinates, matching the
projection convention in geom) lies inside the projected triangle, with the
top-left rule breaking ties on edges. Stored depth is camera-space z,
perspective-correct via 1/z interpolation. Triangles are clipped against a
near plane at 1 mm; anything fully behind it is discarded.

A render touches only the pixels its triangles can reach: the z-buffer
spans the union of the triangles' clipped pixel boxes. Triangles are grouped
into size classes, box height and width each rounded up to a power of two,
and each class is tested as one (triangles, rows, columns) grid of pixel
centres masked to every triangle's own box, at most _CHUNK_PX padded pixels
per pass so memory stays bounded. Each pixel keeps the minimum depth over
its covering triangles, which does not depend on the order they are visited
in.
"""

from __future__ import annotations

import itertools

import numpy as np

from .geom import CameraIntrinsics, ObjectModel, Pose

NEAR_MM = 1.0
_CHUNK_PX = 1 << 16  # padded box pixels per array pass, about 60 bytes of work arrays each


class DistanceMap:
    """Per-pixel camera-space depth (mm, 0 = background) plus visibility mask.

    The map holds `box`, the depth of the pixels from row `row0` and column
    `col0` on; every pixel outside it is background. `depth` and `visible`
    build the read-only full (height, width) frames on each access.
    """

    def __init__(self, width: int, height: int, depth: np.ndarray, visible: np.ndarray):
        if depth.shape != (height, width) or visible.shape != depth.shape:
            raise ValueError("depth/visible shape must be (height, width)")
        if not np.array_equal(visible, depth > 0):
            raise ValueError("visible mask must equal depth > 0")
        depth.setflags(write=False)
        self.width, self.height, self.box, self.row0, self.col0 = width, height, depth, 0, 0

    @staticmethod
    def from_depth(depth: np.ndarray) -> "DistanceMap":
        d = np.asarray(depth, dtype=np.float64)
        return DistanceMap(d.shape[1], d.shape[0], d, d > 0)

    @staticmethod
    def _of_box(width: int, height: int, box: np.ndarray, row0: int, col0: int) -> "DistanceMap":
        dmap = DistanceMap.__new__(DistanceMap)
        box.setflags(write=False)
        dmap.width, dmap.height, dmap.box, dmap.row0, dmap.col0 = width, height, box, row0, col0
        return dmap

    def _frame(self, box: np.ndarray) -> np.ndarray:
        frame = np.zeros((self.height, self.width), box.dtype)
        frame[self.row0:self.row0 + box.shape[0], self.col0:self.col0 + box.shape[1]] = box
        frame.setflags(write=False)
        return frame

    @property
    def depth(self) -> np.ndarray:
        return self._frame(self.box)

    @property
    def visible(self) -> np.ndarray:
        return self._frame(self.box > 0)


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
    cam_pts = pose.transform(model.vertices) if len(model.vertices) else np.zeros((0, 3))
    tris = cam_pts[model.triangles]
    front = (tris[:, :, 2] >= NEAR_MM).all(axis=1)
    clipped = [piece for tri in tris[~front] for piece in _clip_near(tri, NEAR_MM)]
    with np.errstate(divide="ignore"):  # a 1 / 0 depth never wins the depth test
        zbuf, row0, col0 = _raster_triangles(np.concatenate([tris[front], np.reshape(clipped, (-1, 3, 3))]), camera)
    zbuf[zbuf == np.inf] = 0.0
    return DistanceMap._of_box(camera.width, camera.height, zbuf, row0, col0)


def _raster_triangles(tris: np.ndarray, camera: CameraIntrinsics) -> tuple[np.ndarray, int, int]:
    """Depth-test the (T, 3, 3) camera-space triangles, all at z >= NEAR_MM,
    into a z-buffer (inf = empty) over the union of their clipped pixel
    boxes; returns it with the (row, column) of its top-left pixel."""
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
    if not keep.any():
        return np.zeros((0, 0)), 0, 0
    x0, x1 = x0[keep].astype(np.int64), x1[keep].astype(np.int64) + 1
    y0, y1 = y0[keep].astype(np.int64), y1[keep].astype(np.int64) + 1
    row0, col0 = int(y0.min()), int(x0.min())
    zbuf = np.full((int(y1.max()) - row0, int(x1.max()) - col0), np.inf)

    # the kept triangles in size-class order, a class being the log2 of the
    # box height and width rounded up to powers of two; per-vertex values as
    # (3, T, 1, 1) columns that broadcast over a (T, th, tw) pixel grid, where
    # edge k runs from vertex k + 1 to vertex k + 2
    key = np.frexp(y1 - y0 - 1)[1] * 64 + np.frexp(x1 - x0 - 1)[1]
    order = np.argsort(key)
    x0, x1, y0, y1, area2 = (a[order] for a in (x0, x1, y0, y1, area2[keep]))
    vx, vy, vz = (a[keep][order].T[:, :, None, None] for a in (px, py, z))
    ax, ay, bx, by = vx[[1, 2, 0]], vy[[1, 2, 0]], vx[[2, 0, 1]], vy[[2, 0, 1]]
    owns = _owns(ax, ay, bx, by)
    area2 = area2[:, None, None]

    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    for start, stop in zip(starts, starts[1:] + [len(key)]):
        # a class's padded box is cut into (th, tw) tiles, n triangles per pass
        big_h, big_w = 1 << int(key[start] // 64), 1 << int(key[start] % 64)
        tw = min(big_w, 1 << (_CHUNK_PX.bit_length() - 1))
        th = min(big_h, 1 << ((_CHUNK_PX // tw).bit_length() - 1))
        n = _CHUNK_PX // (th * tw)
        for lo, dy, dx in itertools.product(range(start, stop, n), range(0, big_h, th), range(0, big_w, tw)):
            t = slice(lo, min(stop, lo + n))
            gy = (y0[t] + dy)[:, None, None] + np.arange(th)[:, None]
            gx = (x0[t] + dx)[:, None, None] + np.arange(tw)
            w = _edge(ax[:, t], ay[:, t], bx[:, t], by[:, t], gx.astype(np.float64), gy.astype(np.float64))
            cover = (
                ((w > 0) | ((w == 0) & owns[:, t])).all(axis=0)
                & (gy < y1[t, None, None]) & (gx < x1[t, None, None])
            )
            # 1/z interpolation, in place: (w / area2) / z per vertex
            w /= area2[t]
            w /= vz[:, t]
            depth = 1.0 / (w[0] + w[1] + w[2])[cover]
            # a NaN or infinite depth never wins the depth test
            ok = np.isfinite(depth)
            pix = ((gy - row0) * zbuf.shape[1] + (gx - col0))[cover][ok]
            np.minimum.at(zbuf.reshape(-1), pix, depth[ok])
    return zbuf, row0, col0


def write_pgm(dmap: DistanceMap, path) -> None:
    """Debug dump: 16-bit P2 PGM with depth rounded to whole millimeters."""
    q = np.clip(np.rint(dmap.depth), 0, 65535).astype(np.int64)
    lines = [f"P2\n{dmap.width} {dmap.height}\n65535"]
    lines += [" ".join(str(v) for v in row) for row in q]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
