"""Software z-buffer rasterizer producing per-pixel depth and visibility maps.

A pixel is covered when its center (integer coordinates, matching the
projection convention in geom) lies inside the projected triangle, with the
top-left rule breaking ties on edges. Stored depth is camera-space z,
perspective-correct via 1/z interpolation. Triangles are clipped against a
near plane at 1 mm; anything fully behind it is discarded.

A render touches only the pixels its triangles can reach: the z-buffer
spans the union of the triangles' clipped pixel boxes. Every per-vertex
quantity is a (3, T) array, corner slot first and triangle last: the mesh's
vertices are projected once and gathered through the (3, T) corner indices,
near-clipped pieces joining as extra vertices. Triangles are grouped into
size classes, box height and width each rounded up to a power of two, and
each class is tested as one (rows, columns, triangles) grid of pixel centres
masked to every triangle's own box, at most _CHUNK_PX padded pixels per pass
so memory stays bounded; with the triangle axis last, numpy's inner loops
run along it. Depth is interpolated on the covered pixels only. Each pixel
keeps the minimum depth over its covering triangles, which does not depend
on the order they are visited in.
"""

from __future__ import annotations

import itertools

import numpy as np

from .geom import CameraIntrinsics, ObjectModel, Pose

NEAR_MM = 1.0
_CHUNK_PX = 1 << 16  # padded box pixels per array pass, at most about 85 bytes of work arrays each


class DistanceMap:
    """Per-pixel camera-space depth (mm, 0 = background) plus visibility mask.

    `DistanceMap(width, height, box, row0=0, col0=0)` is the one constructor:
    the map holds `box`, the depth of the pixels from row `row0` and column
    `col0` on, which must fit inside the (height, width) frame; every pixel
    outside it is background. The box is made read-only. `depth` and
    `visible` (depth > 0) build the read-only full frames on each access.
    """

    def __init__(self, width: int, height: int, box: np.ndarray, row0: int = 0, col0: int = 0):
        if box.ndim != 2 or min(row0, col0) < 0 or row0 + box.shape[0] > height or col0 + box.shape[1] > width:
            raise ValueError(f"a {box.shape} box at ({row0}, {col0}) does not fit a {height}x{width} frame")
        box.setflags(write=False)
        self.width, self.height, self.box, self.row0, self.col0 = width, height, box, row0, col0

    @staticmethod
    def from_depth(depth: np.ndarray) -> "DistanceMap":
        """A full-frame map of a (height, width) depth array."""
        d = np.asarray(depth, dtype=np.float64)
        return DistanceMap(d.shape[1], d.shape[0], d)

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


def _owns(dx, dy):
    """Top-left tie rule (y grows downward) for an edge running (dx, dy): a
    horizontal edge running +x is a top edge, an upward edge is a left edge;
    only those own their pixels."""
    return ((dy == 0.0) & (dx > 0.0)) | (dy < 0.0)


def render_distance_map(model: ObjectModel, pose: Pose, camera: CameraIntrinsics) -> DistanceMap:
    """Rasterize the posed mesh into a DistanceMap under `camera`."""
    cam_pts = pose.transform(model.vertices)
    corners = model.triangles.T
    ahead = (cam_pts[:, 2] >= NEAR_MM)[corners]
    front = ahead[0] & ahead[1] & ahead[2]
    # near-clipped pieces join as extra vertices, three new corners each
    pieces = [p for i in np.flatnonzero(~front) for p in _clip_near(cam_pts[corners[:, i]], NEAR_MM)]
    pts = np.concatenate([cam_pts, np.reshape(pieces, (-1, 3))])
    corners = np.concatenate([corners[:, front], np.arange(len(cam_pts), len(pts)).reshape(-1, 3).T], axis=1)
    with np.errstate(divide="ignore"):  # a 1 / 0 depth never wins the depth test
        zbuf, row0, col0 = _raster_triangles(pts, corners, camera)
    zbuf[zbuf == np.inf] = 0.0
    return DistanceMap(camera.width, camera.height, zbuf, row0, col0)


def _raster_triangles(pts: np.ndarray, corners: np.ndarray, camera: CameraIntrinsics) -> tuple[np.ndarray, int, int]:
    """Depth-test the triangles whose (3, T) vertex indices into the (V, 3)
    camera-space `pts` are `corners`, all at z >= NEAR_MM, into a z-buffer
    (inf = empty) over the union of their clipped pixel boxes; returns it
    with the (row, column) of its top-left pixel."""
    # (x, y, z) rows; vertices behind the near plane are projected too but never gathered
    with np.errstate(divide="ignore", invalid="ignore"):
        proj = np.stack([camera.fx * pts[:, 0] / pts[:, 2] + camera.cx,
                         camera.fy * pts[:, 1] / pts[:, 2] + camera.cy, pts[:, 2]])
    x, y = xy = np.take(proj[:2], corners, axis=1)  # (2, 3, T)
    area2 = _edge(x[0], y[0], x[1], y[1], x[2], y[2])
    # (column, row) of each box's first pixel and of the pixel past its last
    b0 = np.maximum(np.ceil(xy.min(axis=1)), 0.0)
    b1 = np.minimum(np.floor(xy.max(axis=1)), [[camera.width - 1], [camera.height - 1]]) + 1.0
    keep = np.flatnonzero((area2 != 0.0) & (b0[0] < b1[0]) & (b0[1] < b1[1]))
    if not len(keep):
        return np.zeros((0, 0)), 0, 0

    # the kept triangles in size-class order, a class being the log2 of the
    # box width and height rounded up to powers of two
    b0, b1 = np.take(b0, keep, axis=1).astype(np.int64), np.take(b1, keep, axis=1).astype(np.int64)
    log_w, log_h = np.frexp(b1 - b0 - 1)[1]
    key = log_h * 64 + log_w
    order = np.argsort(key)
    keep, key = np.take(keep, order), np.take(key, order)
    (x0, y0), (x1, y1) = np.take(b0, order, axis=1), np.take(b1, order, axis=1)
    row0, col0 = int(y0.min()), int(x0.min())
    zbuf = np.full((int(y1.max()) - row0, int(x1.max()) - col0), np.inf)
    width = zbuf.shape[1]
    base = (y0 - row0) * width + (x0 - col0)  # each box's first pixel in the flat z-buffer

    # consistent winding: swapping two corners makes the doubled signed area
    # positive. Per-vertex values as (3, 1, 1, T) rows that broadcast over a
    # (th, tw, T) pixel grid, where edge k runs from vertex k + 1 to k + 2.
    area2 = np.take(area2, keep)
    corners = np.take(corners, keep, axis=1)
    corners = np.where(area2 < 0.0, corners[[0, 2, 1]], corners)
    (ax, bx), (ay, by) = np.take(proj[:2], corners[[1, 2, 0, 2, 0, 1]], axis=1).reshape(2, 2, 3, 1, 1, -1)
    ex, ey = bx - ax, by - ay
    owns = _owns(ex, ey)
    # per triangle: |area2| and the corners' z, the 1/z interpolation's divisors
    div = np.concatenate([np.abs(area2)[None], np.take(proj[2], corners)])

    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    for start, stop in zip(starts, starts[1:] + [len(key)]):
        # a class's padded box is cut into (th, tw) tiles, n triangles per pass
        big_h, big_w = 1 << int(key[start] // 64), 1 << int(key[start] % 64)
        tw = min(big_w, 1 << (_CHUNK_PX.bit_length() - 1))
        th = min(big_h, 1 << ((_CHUNK_PX // tw).bit_length() - 1))
        n = _CHUNK_PX // (th * tw)
        for lo, dy, dx in itertools.product(range(start, stop, n), range(0, big_h, th), range(0, big_w, tw)):
            t = slice(lo, min(stop, lo + n))
            # pixel-centre grids (th, T) and (tw, T), whole numbers as floats
            gy = y0[t] + np.arange(dy, dy + th, dtype=np.float64)[:, None]
            gx = x0[t] + np.arange(dx, dx + tw, dtype=np.float64)[:, None]
            # _edge term for term, with its (bx - ax) and (by - ay) factors made once
            w = ex[..., t] * (gy[:, None] - ay[..., t]) - ey[..., t] * (gx - ax[..., t])
            cover = (
                ((w > 0) | ((w == 0) & owns[..., t])).all(axis=0)
                & (gy < y1[t])[:, None] & (gx < x1[t])
            )
            # depth on the covered pixels only, 1/z interpolated as (w / area2) / z
            # per vertex; pixel f of the grid is (row * tw + column) * T + triangle
            f = np.flatnonzero(cover)
            w = np.take(w.reshape(3, -1), f, axis=1)
            q, it = np.divmod(f, gy.shape[1])
            d = np.take(div[:, t], it, axis=1)
            w /= d[0]
            w /= d[1:]
            depth = 1.0 / (w[0] + w[1] + w[2])
            # a NaN or infinite depth never wins the depth test
            ok = np.isfinite(depth)
            pix = np.take(base[t], it) + q + (q >> (tw.bit_length() - 1)) * (width - tw)
            np.minimum.at(zbuf.reshape(-1)[dy * width + dx:], pix[ok], depth[ok])  # from the tile's offset on
    return zbuf, row0, col0


def write_pgm(dmap: DistanceMap, path) -> None:
    """Debug dump: 16-bit P2 PGM with depth rounded to whole millimeters."""
    q = np.clip(np.rint(dmap.depth), 0, 65535).astype(np.int64)
    lines = [f"P2\n{dmap.width} {dmap.height}\n65535"]
    lines += [" ".join(str(v) for v in row) for row in q]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
