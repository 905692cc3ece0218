"""Software z-buffer rasterizer producing per-pixel depth and visibility maps.

A pixel is covered when its center (integer coordinates, matching the
projection convention in geom) lies inside the projected triangle, with the
top-left rule breaking ties on edges. Stored depth is camera-space z,
perspective-correct via 1/z interpolation. Triangles are clipped against a
near plane at 1 mm; anything fully behind it is discarded.

One render_distance_maps call rasterizes many (model, pose, camera) jobs,
such as every depth map of one image, sharing one pass loop among
consecutive jobs of at most _BATCH_TRIANGLES triangles together, so the
per-triangle work arrays stay bounded; a map touches only the pixels its
triangles can reach. Each job's triangles are posed,
near-clipped (the pieces stay in their job) and projected under the job's
own camera, and each map's box is the union of its triangles' clipped pixel
boxes. The boxes are stacked top to bottom in one z-buffer as wide as the
widest box, so a triangle's pixels differ from a single render's only by
its map's row offset. Each map holds a view of its rows, so the buffer,
the boxes' summed heights by the widest box's width, lives as long as any
of the maps. Every per-corner quantity is a (3, T) array, corner slot first and
triangle last. Triangles are grouped into size classes, box height and
width each rounded up to a power of two, whatever their map; in a loop of
fewer than _SQUARE_TRIANGLES kept triangles, where the passes' fixed cost
outweighs their padded pixels, a box of at most _SQUARE_PX pixels takes the
square class of its larger side instead. Each class
is tested as one (rows, columns, triangles) grid of pixel centres masked to
every triangle's own box, at most _CHUNK_PX padded pixels per pass so memory
stays bounded; with the triangle axis last, numpy's inner loops run along
it. Depth is interpolated on the covered pixels only. Each pixel keeps the
minimum depth over its covering triangles, which does not depend on the
order they are visited in, so a map is byte-identical whether it is
rendered alone or with others.
"""

from __future__ import annotations

import itertools

import numpy as np

from .geom import CameraIntrinsics, ObjectModel, Pose

NEAR_MM = 1.0
_CHUNK_PX = 1 << 16  # padded box pixels per array pass, at most about 85 bytes of work arrays each
_BATCH_TRIANGLES = 1 << 12  # triangles per z-buffer pass loop, about 400 bytes of work arrays each
# A pass costs about as much as testing 10k padded pixels: below this many
# kept triangles, boxes of at most _SQUARE_PX take square classes, fewer
# passes for more padding
_SQUARE_TRIANGLES = 1 << 10
_SQUARE_PX = 16


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
        """A full-frame map of a copy of the (height, width) depth array."""
        d = np.array(depth, dtype=np.float64)
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


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Indices where the 1-D `a` starts a run of equal values."""
    return np.flatnonzero(np.concatenate([a[:1] == a[:1], a[1:] != a[:-1]]))


def render_distance_map(model: ObjectModel, pose: Pose, camera: CameraIntrinsics) -> DistanceMap:
    """Rasterize the posed mesh into a DistanceMap under `camera`."""
    return render_distance_maps([(model, pose, camera)])[0]


def render_distance_maps(jobs) -> list[DistanceMap]:
    """Rasterize each (model, pose, camera) job's posed mesh into its own
    DistanceMap under its own camera. Consecutive jobs share one z-buffer
    pass loop while their meshes hold at most _BATCH_TRIANGLES triangles
    together; a larger mesh has a pass loop of its own."""
    maps, group, n = [], [], 0
    for job in jobs:
        if group and n + len(job[0].triangles) > _BATCH_TRIANGLES:
            maps += _render_group(group)
            group, n = [], 0
        group.append(job)
        n += len(job[0].triangles)
    return maps + (_render_group(group) if group else [])


def _render_group(jobs: list) -> list[DistanceMap]:
    """render_distance_maps of a nonempty list of jobs, in one pass loop."""
    cam_pts = [pose.transform(model.vertices) for model, pose, _ in jobs]
    counts = [len(p) for p in cam_pts]
    first = np.cumsum([0] + counts[:-1])
    corners = np.concatenate([model.triangles.T + f for (model, _, _), f in zip(jobs, first)], axis=1)
    job = np.repeat(np.arange(len(jobs)), [len(model.triangles) for model, _, _ in jobs])
    pts = np.concatenate(cam_pts)
    ahead = (pts[:, 2] >= NEAR_MM)[corners]
    front = ahead[0] & ahead[1] & ahead[2]
    # near-clipped pieces join as extra vertices, three new corners each, in their triangle's map
    cut = np.flatnonzero(~front)
    clips = [_clip_near(pts[corners[:, i]], NEAR_MM) for i in cut]
    piece_job = np.repeat(job[cut], [len(c) for c in clips])
    piece_corners = np.arange(len(pts), len(pts) + 3 * len(piece_job)).reshape(-1, 3).T
    corners = np.concatenate([corners[:, front], piece_corners], axis=1)
    job = np.concatenate([job[front], piece_job])
    vertex_job = np.concatenate([np.repeat(np.arange(len(jobs)), counts), np.repeat(piece_job, 3)])
    pts = np.concatenate([pts, np.reshape([p for c in clips for p in c], (-1, 3))])
    cams = np.array([[c.fx, c.fy, c.cx, c.cy, c.width - 1, c.height - 1] for _, _, c in jobs]).T
    fx, fy, cx, cy = np.take(cams[:4], vertex_job, axis=1)
    # (x, y, z) rows; vertices behind the near plane are projected too but never gathered
    with np.errstate(divide="ignore", invalid="ignore"):
        proj = np.stack([fx * pts[:, 0] / pts[:, 2] + cx, fy * pts[:, 1] / pts[:, 2] + cy, pts[:, 2]])
    with np.errstate(divide="ignore"):  # a 1 / 0 depth never wins the depth test
        zbuf, boxes = _raster_triangles(proj, corners, job, cams[4:])
    zbuf[zbuf == np.inf] = 0.0
    return [DistanceMap(cam.width, cam.height, zbuf[r:r + h, :w], row0, col0)
            for (_, _, cam), (row0, col0, h, w, r) in zip(jobs, boxes.T.tolist())]


def _raster_triangles(proj: np.ndarray, corners: np.ndarray, job: np.ndarray,
                      last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Depth-test the triangles whose (3, T) vertex indices into the (3, V)
    projected (x, y, z) rows `proj` are `corners`, all at z >= NEAR_MM,
    triangle t into map job[t], whose frame's last (column, row) is
    last[:, job[t]]. Map j's z-buffer (inf = empty) spans the union of its
    triangles' clipped pixel boxes, 0x0 at (0, 0) when there are none; the
    boxes are stacked top to bottom in one buffer as wide as the widest.
    Returns the buffer and a (5, maps) array of each box's first row and
    column in its frame, its height, its width and its first buffer row."""
    x, y = xy = np.take(proj[:2], corners, axis=1)  # (2, 3, T)
    area2 = _edge(x[0], y[0], x[1], y[1], x[2], y[2])
    # (column, row) of each box's first pixel and of the pixel past its last
    b0 = np.maximum(np.ceil(xy.min(axis=1)), 0.0)
    b1 = np.minimum(np.floor(xy.max(axis=1)), np.take(last, job, axis=1)) + 1.0
    keep = np.flatnonzero((area2 != 0.0) & (b0[0] < b1[0]) & (b0[1] < b1[1]))

    b0, b1 = np.take(b0, keep, axis=1).astype(np.int64), np.take(b1, keep, axis=1).astype(np.int64)
    job = np.take(job, keep)
    # each map's box, as (column, row) of its first pixel and of the pixel past
    # its last: the union of its triangles' boxes, which come in runs of one map
    runs = _run_starts(job)
    m0, m1 = np.full(last.shape, np.iinfo(np.int64).max), np.zeros(last.shape, np.int64)
    for i in range(2):
        np.minimum.at(m0[i], job[runs], np.minimum.reduceat(b0[i], runs))
        np.maximum.at(m1[i], job[runs], np.maximum.reduceat(b1[i], runs))
    m0 = np.minimum(m0, m1)  # a map with no triangle: 0x0 at (0, 0)
    (col0, row0), (box_w, box_h) = m0, m1 - m0
    boxes = np.stack([row0, col0, box_h, box_w, np.cumsum(box_h) - box_h])

    # the kept triangles in size-class order, a class being the log2 of the
    # box width and height rounded up to powers of two; in a small group, a
    # box of at most _SQUARE_PX takes the square class of its larger side
    log_w, log_h = np.frexp(b1 - b0 - 1)[1]
    if len(keep) < _SQUARE_TRIANGLES:
        side = np.maximum(log_w, log_h)
        square = side <= _SQUARE_PX.bit_length() - 1
        log_w, log_h = np.where(square, side, log_w), np.where(square, side, log_h)
    key = log_h * 64 + log_w
    order = np.argsort(key)
    keep, key, job = np.take(keep, order), np.take(key, order), np.take(job, order)
    b0, b1 = np.take(b0, order, axis=1), np.take(b1, order, axis=1)
    (x0, y0), (x1, y1) = b0, b1
    zbuf = np.full((int(box_h.sum()), int(box_w.max())), np.inf)
    width = zbuf.shape[1]
    # each triangle's box's first pixel in the flat z-buffer
    base = np.take((boxes[4] - row0) * width - col0, job) + y0 * width + x0

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

    starts = _run_starts(key).tolist()
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
    return zbuf, boxes


def write_pgm(dmap: DistanceMap, path) -> None:
    """Debug dump: 16-bit P2 PGM with depth rounded to whole millimeters."""
    q = np.clip(np.rint(dmap.depth), 0, 65535).astype(np.int64)
    lines = [f"P2\n{dmap.width} {dmap.height}\n65535"]
    lines += [" ".join(str(v) for v in row) for row in q]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
