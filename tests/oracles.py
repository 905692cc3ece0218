"""Second-route reference implementations for the test suite.

Everything here recomputes a production result through a deliberately
different algorithm: per-pixel ray casting instead of scanline
rasterization, explicit Python loops instead of vectorized reductions,
naive accumulation instead of closed-form counting. Shared on purpose are
the elementary one-step primitives (rigid transform, composition, pinhole
projection, small-array mean): each is a handful of IEEE operations behind
a name, and sharing them is what makes exact-match assertions meaningful.
The correspondence, symmetry, matching, and reduction structure is always
coded independently. Four references instead keep the production arithmetic
and change only the iteration, so results must match byte for byte: the
one-triangle-at-a-time z-buffer, the interleaved squared-distance sum, the
depth-discrepancy error over full frames and the line-at-a-time PLY body.
One keeps the production definition itself, the rotation check by matmul
and np.linalg.det on every matrix, against which the screened check must
decide identically.
"""

from __future__ import annotations

import copy
import math
from pathlib import Path

import numpy as np

from fastpose.geom import ROTATION_TOL, CameraIntrinsics, ObjectModel, Pose, project_point
from fastpose.net import GroupNorm
from fastpose.raster import NEAR_MM, _clip_near, render_distance_map


# ---------------------------------------------------------------------------
# Ray-casting renderer (reference for the z-buffer rasterizer)


def _moller_trumbore(v0, v1, v2, dx, dy):
    """Intersection depth of ray (0,0,0) + t*(dx,dy,1) with one triangle.

    Returns the camera-space depth t, or None for a miss. Boundary hits
    (barycentric coordinate exactly 0 or 1) count as hits; degenerate
    triangles (determinant exactly 0) are skipped.
    """
    e1x, e1y, e1z = v1[0] - v0[0], v1[1] - v0[1], v1[2] - v0[2]
    e2x, e2y, e2z = v2[0] - v0[0], v2[1] - v0[1], v2[2] - v0[2]
    # p = dir x e2
    px = dy * e2z - 1.0 * e2y
    py = 1.0 * e2x - dx * e2z
    pz = dx * e2y - dy * e2x
    det = e1x * px + e1y * py + e1z * pz
    if det == 0.0:
        return None
    inv = 1.0 / det
    # s = origin - v0 = -v0
    sx, sy, sz = -v0[0], -v0[1], -v0[2]
    u = (sx * px + sy * py + sz * pz) * inv
    if u < 0.0 or u > 1.0:
        return None
    # q = s x e1
    qx = sy * e1z - sz * e1y
    qy = sz * e1x - sx * e1z
    qz = sx * e1y - sy * e1x
    v = (dx * qx + dy * qy + 1.0 * qz) * inv
    if v < 0.0 or u + v > 1.0:
        return None
    t = (e2x * qx + e2y * qy + e2z * qz) * inv
    if t < NEAR_MM:
        return None
    return t


def raycast_scalar(model: ObjectModel, pose: Pose, camera: CameraIntrinsics):
    """Pure-Python per-pixel ray casting. Returns (depth, visible)."""
    verts = pose.transform(model.vertices)
    depth = np.zeros((camera.height, camera.width), dtype=np.float64)
    for r in range(camera.height):
        dy = (r - camera.cy) / camera.fy
        for c in range(camera.width):
            dx = (c - camera.cx) / camera.fx
            best = 0.0
            for tri in model.triangles:
                t = _moller_trumbore(verts[tri[0]], verts[tri[1]], verts[tri[2]], dx, dy)
                if t is not None and (best == 0.0 or t < best):
                    best = t
            depth[r, c] = best
    return depth, depth > 0


def raycast(model: ObjectModel, pose: Pose, camera: CameraIntrinsics):
    """Ray casting vectorized over pixels, one triangle at a time.

    Expression layout mirrors raycast_scalar term for term so the two
    agree bitwise; only the iteration order over pixels differs.
    """
    verts = pose.transform(model.vertices)
    cols = (np.arange(camera.width, dtype=np.float64) - camera.cx) / camera.fx
    rows = (np.arange(camera.height, dtype=np.float64) - camera.cy) / camera.fy
    dx = np.broadcast_to(cols[None, :], (camera.height, camera.width))
    dy = np.broadcast_to(rows[:, None], (camera.height, camera.width))
    depth = np.zeros((camera.height, camera.width), dtype=np.float64)
    for tri in model.triangles:
        v0, v1, v2 = verts[tri[0]], verts[tri[1]], verts[tri[2]]
        e1 = v1 - v0
        e2 = v2 - v0
        px = dy * e2[2] - 1.0 * e2[1]
        py = 1.0 * e2[0] - dx * e2[2]
        pz = dx * e2[1] - dy * e2[0]
        det = e1[0] * px + e1[1] * py + e1[2] * pz
        ok = det != 0.0
        inv = np.divide(1.0, det, out=np.zeros_like(det), where=ok)
        s = -v0
        u = (s[0] * px + s[1] * py + s[2] * pz) * inv
        ok &= (u >= 0.0) & (u <= 1.0)
        q = np.array([
            s[1] * e1[2] - s[2] * e1[1],
            s[2] * e1[0] - s[0] * e1[2],
            s[0] * e1[1] - s[1] * e1[0],
        ])
        v = (dx * q[0] + dy * q[1] + 1.0 * q[2]) * inv
        ok &= (v >= 0.0) & (u + v <= 1.0)
        t = (e2[0] * q[0] + e2[1] * q[1] + e2[2] * q[2]) * inv
        ok &= t >= NEAR_MM
        closer = ok & ((depth == 0.0) | (t < depth))
        depth[closer] = t[closer]
    return depth, depth > 0


def raster_loop(model: ObjectModel, pose: Pose, camera: CameraIntrinsics) -> np.ndarray:
    """The z-buffer one triangle at a time: each triangle's bounding-box window
    is overwritten where it is covered and nearer. Returns the depth map.

    Per-pixel expressions (projection, edge functions, top-left rule, 1/z
    interpolation) are the rasterizer's own, term for term, so the two agree
    byte for byte; only the iteration differs (a Python loop over triangles
    with a sequential depth test instead of chunked pixel arrays and an
    order-free minimum). Near-plane clipping is shared.
    """
    zbuf = np.full((camera.height, camera.width), np.inf)
    cam_pts = pose.transform(model.vertices) if len(model.vertices) else np.zeros((0, 3))
    for tri_idx in model.triangles:
        for tri in _clip_near(cam_pts[tri_idx], NEAR_MM):
            _raster_one(tri, camera, zbuf)
    return np.where(np.isfinite(zbuf), zbuf, 0.0)


def _edge(ax, ay, bx, by, px, py):
    return (bx - ax) * (py - ay) - (by - ay) * (px - ax)


def _raster_one(tri: np.ndarray, camera: CameraIntrinsics, zbuf: np.ndarray) -> None:
    z = tri[:, 2]
    px = camera.fx * tri[:, 0] / z + camera.cx
    py = camera.fy * tri[:, 1] / z + camera.cy
    area2 = _edge(px[0], py[0], px[1], py[1], px[2], py[2])
    if area2 == 0.0:
        return
    if area2 < 0.0:
        px, py, z = px[[0, 2, 1]], py[[0, 2, 1]], z[[0, 2, 1]]
        area2 = -area2

    h, w = zbuf.shape
    x0 = max(int(np.ceil(px.min())), 0)
    x1 = min(int(np.floor(px.max())), w - 1)
    y0 = max(int(np.ceil(py.min())), 0)
    y1 = min(int(np.floor(py.max())), h - 1)
    if x0 > x1 or y0 > y1:
        return

    gx, gy = np.meshgrid(np.arange(x0, x1 + 1, dtype=np.float64), np.arange(y0, y1 + 1, dtype=np.float64))
    w0 = _edge(px[1], py[1], px[2], py[2], gx, gy)
    w1 = _edge(px[2], py[2], px[0], py[0], gx, gy)
    w2 = _edge(px[0], py[0], px[1], py[1], gx, gy)

    def owns(axi, ayi, bxi, byi):
        dx, dy = bxi - axi, byi - ayi
        return (dy == 0.0 and dx > 0.0) or dy < 0.0

    cover = (
        ((w0 > 0) | ((w0 == 0) & owns(px[1], py[1], px[2], py[2])))
        & ((w1 > 0) | ((w1 == 0) & owns(px[2], py[2], px[0], py[0])))
        & ((w2 > 0) | ((w2 == 0) & owns(px[0], py[0], px[1], py[1])))
    )
    inv_z = (w0 / area2) / z[0] + (w1 / area2) / z[1] + (w2 / area2) / z[2]
    with np.errstate(divide="ignore"):
        depth = 1.0 / inv_z
    window = zbuf[y0 : y1 + 1, x0 : x1 + 1]
    np.copyto(window, depth, where=cover & (depth < window))


def sq_distances_interleaved(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full (len(a), len(b)) squared-distance matrix from one (n, m, 3)
    difference array reduced over its last axis."""
    diffs = a[:, None, :] - b[None, :, :]
    np.multiply(diffs, diffs, out=diffs)
    return diffs.sum(axis=-1)


# ---------------------------------------------------------------------------
# Rotation check (reference for the screened stack check)


def is_rotation_reference(matrix, tol: float = ROTATION_TOL) -> np.ndarray:
    """Per 3x3 matrix of a (..., 3, 3) stack: finite, every |M^T M - I| entry
    by matmul and |det(M) - 1| by np.linalg.det at most `tol`, each matrix
    checked in full."""
    m = np.asarray(matrix, dtype=np.float64)
    finite = np.isfinite(m).all(axis=(-2, -1))
    m = np.where(finite[..., None, None], m, 0.0)
    ortho = np.abs(np.swapaxes(m, -1, -2) @ m - np.eye(3)).max(axis=(-2, -1)) <= tol
    return finite & ortho & (np.abs(np.linalg.det(m) - 1.0) <= tol)


# ---------------------------------------------------------------------------
# Pose-error references (double loops over vertices and symmetries)


def add_reference(model: ObjectModel, pose_est: Pose, pose_gt: Pose) -> float:
    est = pose_est.transform(model.vertices)
    gt = pose_gt.transform(model.vertices)
    dists = []
    for i in range(len(est)):
        dx = est[i][0] - gt[i][0]
        dy = est[i][1] - gt[i][1]
        dz = est[i][2] - gt[i][2]
        dists.append(math.sqrt(dx * dx + dy * dy + dz * dz))
    return float(np.mean(np.asarray(dists)))


def add_s_reference(model: ObjectModel, pose_est: Pose, pose_gt: Pose) -> float:
    est = pose_est.transform(model.vertices)
    gt = pose_gt.transform(model.vertices)
    dists = []
    for i in range(len(est)):
        best = math.inf
        for j in range(len(gt)):
            dx = est[i][0] - gt[j][0]
            dy = est[i][1] - gt[j][1]
            dz = est[i][2] - gt[j][2]
            d2 = dx * dx + dy * dy + dz * dz
            if d2 < best:
                best = d2
        dists.append(math.sqrt(best))
    return float(np.mean(np.asarray(dists)))


def mssd_reference(model: ObjectModel, pose_est: Pose, pose_gt: Pose) -> float:
    est = pose_est.transform(model.vertices)
    best = math.inf
    for row in model.symmetries:
        gt = pose_gt.compose(Pose(row[:, :3], row[:, 3])).transform(model.vertices)
        worst = 0.0
        for i in range(len(est)):
            dx = est[i][0] - gt[i][0]
            dy = est[i][1] - gt[i][1]
            dz = est[i][2] - gt[i][2]
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            if d > worst:
                worst = d
        if worst < best:
            best = worst
    return best


def mspd_reference(model: ObjectModel, pose_est: Pose, pose_gt: Pose,
                   camera: CameraIntrinsics) -> float:
    est_cam = pose_est.transform(model.vertices)
    est = [project_point(camera, est_cam[i]) for i in range(len(est_cam))]
    best = math.inf
    for row in model.symmetries:
        gt_cam = pose_gt.compose(Pose(row[:, :3], row[:, 3])).transform(model.vertices)
        worst = 0.0
        for i in range(len(est)):
            g = project_point(camera, gt_cam[i])
            dx = est[i][0] - g[0]
            dy = est[i][1] - g[1]
            d = math.sqrt(dx * dx + dy * dy)
            if d > worst:
                worst = d
        if worst < best:
            best = worst
    return best


def vsd_full_frame(model: ObjectModel, pose_est: Pose, pose_gt: Pose, camera: CameraIntrinsics, taus) -> list[float]:
    """The depth-discrepancy error on the renders' full (height, width)
    frames: the same counts and division as metrics.e_vsd, over every pixel."""
    d_est = render_distance_map(model, pose_est, camera)
    d_gt = render_distance_map(model, pose_gt, camera)
    inter = d_est.visible & d_gt.visible
    union_count = int((d_est.visible | d_gt.visible).sum())
    if union_count == 0:
        return [0.0 for _ in taus]
    diff = np.abs(d_est.depth[inter] - d_gt.depth[inter])
    return [float((union_count - int((diff < tau).sum())) / union_count) for tau in taus]


def vsd_reference(depth_est, visible_est, depth_gt, visible_gt, taus) -> list[float]:
    """Per-pixel loop version of the depth-discrepancy error."""
    h, w = depth_est.shape
    union = 0
    diffs = []
    for r in range(h):
        for c in range(w):
            in_est = bool(visible_est[r, c])
            in_gt = bool(visible_gt[r, c])
            if in_est or in_gt:
                union += 1
            if in_est and in_gt:
                diffs.append(abs(float(depth_est[r, c]) - float(depth_gt[r, c])))
    out = []
    for tau in taus:
        if union == 0:
            out.append(0.0)
            continue
        bad = union - len(diffs)
        for d in diffs:
            if not (d < tau):
                bad += 1
        out.append(bad / union)
    return out


def diameter_reference(vertices) -> float:
    worst = 0.0
    for i in range(len(vertices)):
        for j in range(i + 1, len(vertices)):
            dx = vertices[i][0] - vertices[j][0]
            dy = vertices[i][1] - vertices[j][1]
            dz = vertices[i][2] - vertices[j][2]
            d2 = dx * dx + dy * dy + dz * dz
            if d2 > worst:
                worst = d2
    return math.sqrt(worst)


def ply_loop(path) -> tuple[np.ndarray, np.ndarray]:
    """Vertices and triangles of a well-formed ASCII PLY file, one body line at
    a time with Python's float() and int(), elements in header order."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    elements, i = [], 1
    while lines[i].strip() != "end_header":
        parts = lines[i].split()
        if parts[:1] == ["element"]:
            elements.append((parts[1], int(parts[2]), []))
        elif parts[:1] == ["property"]:
            elements[-1][2].append(parts[-1])
        i += 1
    body = iter(lines[i + 1:])
    vertices, triangles = np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)
    for name, count, props in elements:
        rows = [next(body).split() for _ in range(count)]
        if name == "vertex":
            vertices = np.array([[float(r[props.index(a)]) for a in "xyz"] for r in rows]).reshape(-1, 3)
        else:
            triangles = np.array([[int(v) for v in r[1:]] for r in rows], dtype=np.int64).reshape(-1, 3)
    return vertices, triangles


def recall_reference(errors, threshold) -> float:
    below = 0
    for e in errors:
        if e < threshold:
            below += 1
    return below / len(errors)


# ---------------------------------------------------------------------------
# Operation and parameter counting (loop accumulation, independent shapes)


def conv_out_hw(h_in, w_in, k, stride, padding):
    return ((h_in + 2 * padding - k) // stride + 1,
            (w_in + 2 * padding - k) // stride + 1)


def conv_macs_reference(c_out, c_in, k, h_out, w_out) -> int:
    total = 0
    for _ in range(c_out):
        for _ in range(h_out):
            for _ in range(w_out):
                acc = 0
                for _ in range(c_in):
                    acc += k * k
                total += acc
    return total


def dense_macs_reference(n_out, n_in) -> int:
    total = 0
    for _ in range(n_out):
        total += n_in
    return total


def graph_shapes_reference(graph) -> dict:
    """Independent shape inference walking the layer list in order."""
    shapes = {"@input": tuple(graph.input_shape)}
    for layer in graph.layers:
        src = shapes[layer.inputs[0]]
        if layer.kind == "conv2d":
            c_out = layer.weight.shape[0]
            k = layer.weight.shape[2]
            h, w = conv_out_hw(src[1], src[2], k, layer.stride, layer.padding)
            shapes[layer.name] = (c_out, h, w)
        elif layer.kind in ("groupnorm", "relu"):
            shapes[layer.name] = src
        elif layer.kind == "upsample2x":
            shapes[layer.name] = (src[0], src[1] * 2, src[2] * 2)
        elif layer.kind == "flatten":
            n = 1
            for d in src:
                n *= d
            shapes[layer.name] = (n,)
        elif layer.kind == "dense":
            shapes[layer.name] = (layer.weight.shape[0],)
        elif layer.kind == "concat":
            total = 0
            for name, rng in zip(layer.inputs, layer.ranges):
                if rng is None:
                    total += shapes[name][0]
                else:
                    total += rng[1] - rng[0]
            shapes[layer.name] = (total, src[1], src[2])
        else:
            raise AssertionError(f"oracle does not know kind {layer.kind}")
    return shapes


def graph_macs_reference(graph) -> int:
    shapes = graph_shapes_reference(graph)
    total = 0
    for layer in graph.layers:
        if layer.kind == "conv2d":
            c_out, h, w = shapes[layer.name]
            c_in = layer.weight.shape[1]
            k = layer.weight.shape[2]
            total += conv_macs_reference(c_out, c_in, k, h, w)
        elif layer.kind == "dense":
            total += dense_macs_reference(layer.weight.shape[0], layer.weight.shape[1])
    return total


def params_reference(graph) -> int:
    total = 0
    for layer in graph.layers:
        for arr in layer.params().values():
            n = 1
            for d in arr.shape:
                n *= d
            total += n
    return total


# ---------------------------------------------------------------------------
# Finite differences


def central_difference(f, arr: np.ndarray, index, h: float = 1e-6) -> float:
    """d f / d arr[index] by central differences; arr is modified in place
    and restored."""
    old = arr[index]
    arr[index] = old + h
    plus = f()
    arr[index] = old - h
    minus = f()
    arr[index] = old
    return (plus - minus) / (2.0 * h)


def gradcheck_rel_err(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


# ---------------------------------------------------------------------------
# Unfused network reference


def unfused_run(graph, x, upstream=None):
    """Run a graph's declared layers one at a time, never fusing: every
    nearest 2x upsample is materialised with np.repeat (its gradient sums each
    2x2 block) and every conv runs its plain forward/backward on that map.
    Returns the output, or with upstream (output, param_grads, input_grad)."""
    values = {"@input": x}
    caches = {}
    for layer in graph.layers:
        xs = [values[i] for i in layer.inputs]
        if layer.kind == "upsample2x":
            values[layer.name] = np.repeat(np.repeat(xs[0], 2, axis=1), 2, axis=2)
        else:
            values[layer.name], caches[layer.name] = layer.forward(xs)
    out = values[graph.output]
    if upstream is None:
        return out
    grads = {graph.output: upstream}
    param_grads = {}
    for layer in reversed(graph.layers):
        gy = grads.pop(layer.name, None)
        if gy is None:
            gy = np.zeros_like(values[layer.name])
        if layer.kind == "upsample2x":
            c, h2, w2 = gy.shape
            gxs = [gy.reshape(c, h2 // 2, 2, w2 // 2, 2).sum(axis=(2, 4))]
        else:
            gxs, gparams = layer.backward(gy, caches[layer.name])
            if gparams:
                param_grads[layer.name] = gparams
        for src, gx in zip(layer.inputs, gxs):
            grads[src] = grads[src] + gx if src in grads else gx
    return out, param_grads, grads.get("@input", np.zeros_like(x))


# ---------------------------------------------------------------------------
# Independent end-to-end evaluation (matching + pooling + recall averaging)


def evaluate_reference(estimates, ground_truth, models, grid) -> dict:
    """Re-derive the dataset AR scores from scratch.

    Matching, pooling, recall, and averaging are all coded here with plain
    dict/loop logic; instance errors come from the reference metric
    functions above, with depth maps from the ray-casting renderer.
    """
    chosen = {}
    for est in estimates:
        key = (est.scene_id, est.im_id, est.obj_id)
        if key not in chosen or est.score > chosen[key].score:
            chosen[key] = est

    per_obj = {}
    for rec in ground_truth:
        model = models[rec.obj_id]
        entry = per_obj.setdefault(rec.obj_id, {"vsd": [], "mssd": [], "mspd": [], "add": []})
        est = chosen.get((rec.scene_id, rec.im_id, rec.obj_id))
        if est is None:
            entry["vsd"].append([math.inf] * len(grid.vsd_taus))
            entry["mssd"].append(math.inf)
            entry["mspd"].append(math.inf)
            entry["add"].append(math.inf)
            continue
        d_est, v_est = raycast(model, est.pose, rec.camera)
        d_gt, v_gt = raycast(model, rec.pose, rec.camera)
        taus = [f * model.diameter for f in grid.vsd_taus]
        entry["vsd"].append(vsd_reference(d_est, v_est, d_gt, v_gt, taus))
        entry["mssd"].append(mssd_reference(model, est.pose, rec.pose))
        entry["mspd"].append(mspd_reference(model, est.pose, rec.pose, rec.camera))
        if model.symmetric_flag:
            entry["add"].append(add_s_reference(model, est.pose, rec.pose))
        else:
            entry["add"].append(add_reference(model, est.pose, rec.pose))

    obj_vsd, obj_mssd, obj_mspd, obj_add = [], [], [], []
    for obj_id in per_obj:
        diameter = models[obj_id].diameter
        entry = per_obj[obj_id]

        recalls = []
        for k in range(len(grid.vsd_taus)):
            errs_k = [vec[k] for vec in entry["vsd"]]
            for theta in grid.vsd_correctness:
                recalls.append(recall_reference(errs_k, theta))
        obj_vsd.append(sum(recalls) / len(recalls))

        recalls = [recall_reference(entry["mssd"], f * diameter) for f in grid.mssd_correctness]
        obj_mssd.append(sum(recalls) / len(recalls))

        r = grid.image_width / 640.0
        recalls = [recall_reference(entry["mspd"], k * r) for k in grid.mspd_correctness]
        obj_mspd.append(sum(recalls) / len(recalls))

        recalls = [recall_reference(entry["add"], f * diameter) for f in grid.add_correctness]
        obj_add.append(sum(recalls) / len(recalls))

    ar_vsd = sum(obj_vsd) / len(obj_vsd)
    ar_mssd = sum(obj_mssd) / len(obj_mssd)
    ar_mspd = sum(obj_mspd) / len(obj_mspd)
    return {
        "ar_vsd": ar_vsd,
        "ar_mssd": ar_mssd,
        "ar_mspd": ar_mspd,
        "ar_bop": (ar_vsd + ar_mssd + ar_mspd) / 3.0,
        "ar_add": sum(obj_add) / len(obj_add),
    }


# ---------------------------------------------------------------------------
# Behavioral reference for filter pruning


def zero_path_reference(graph, plan):
    """Copy of the graph where planned channels are zeroed instead of removed.

    Zeroing a whole norm group (conv rows and bias, plus the consumer's
    gamma/beta) makes those channels contribute exactly nothing downstream,
    so this forward pass is the behavioral target for apply_prune.
    """
    ref = copy.deepcopy(graph)
    by_name = {l.name: l for l in ref.layers}
    for name, channels in plan.removed.items():
        conv = by_name[name]
        idx = list(channels)
        conv.weight[idx] = 0.0
        conv.bias[idx] = 0.0
        for consumer in ref.consumers(name):
            assert isinstance(consumer, GroupNorm)
            consumer.gamma[idx] = 0.0
            consumer.beta[idx] = 0.0
    return ref
