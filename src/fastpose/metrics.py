"""Pose-error metrics and Average Recall aggregation.

Implements the five instance-level errors (depth-map discrepancy, maximum
symmetry-aware surface / projection distance, average vertex distance and
its closest-point variant) and the recall grids that turn pooled errors
into per-object and dataset-level AR scores. Correctness comparisons are
strict less-than everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from functools import partial

import numpy as np

from .errors import EmptyInput, EmptyModel, InvalidConfig, LengthMismatch, MissingDiameter
from .geom import _BLOCK_ELEMS, CameraIntrinsics, ObjectModel, Pose, _sq_distance_blocks, project_points
from .raster import DistanceMap, render_distance_maps

METRIC_KINDS = ("vsd", "mssd", "mspd", "add", "add-s")
_CHUNK_VERTICES = 1 << 13  # posed vertices per MSSD/MSPD pass: 192 KB per (n, 3) array, which stays in cache
_GROUP_VERTICES = 16  # estimated vertices per ADD-S cell, were they spread evenly over the cells


def _sq_norms(d: np.ndarray) -> np.ndarray:
    """Squared lengths along the last axis of `d`, which is squared in place:
    the coordinates' squares added from left to right, the same floats as
    np.linalg.norm's sum before its square root."""
    d *= d
    sq = d[..., 0] + d[..., 1]
    for k in range(2, d.shape[-1]):
        sq += d[..., k]
    return sq


def e_add(model: ObjectModel, pose_est: Pose, pose_gt: Pose) -> float:
    """Mean vertex distance between the two posed models (mm)."""
    if len(model.vertices) == 0:
        raise EmptyModel("ADD needs at least one vertex")
    d = pose_est.transform(model.vertices) - pose_gt.transform(model.vertices)
    return float(np.sqrt(_sq_norms(d)).mean())


def _nearest_sq(est: np.ndarray, gt: np.ndarray) -> np.ndarray:
    """Squared distance from each row of `est` to its nearest row of `gt`."""
    return np.concatenate([d2.min(axis=1) for d2 in _sq_distance_blocks(est, gt)])


def e_add_s(model: ObjectModel, pose_est: Pose, pose_gt: Pose) -> float:
    """Mean distance from each estimated vertex to its closest ground-truth vertex (mm).

    The estimated vertices are grouped into cubic cells, round(cbrt(n /
    _GROUP_VERTICES)) of them along the estimate's longest extent. A group
    scans only the ground-truth vertices inside its bounding box grown by a
    reach, first a quarter of a cell. A vertex whose nearest distance found,
    times 1 + 1e-9, is within the reach is done. The others scan again, in
    their own box grown by the largest of their distances times 1 + 2e-9,
    which finishes them all. Vertices whose box holds no candidate are
    finished by one plain scan at the end. So no vertex is scanned more
    than twice: at worst 2 n^2 squared distances.

    This is exact. For an estimated vertex p that a scan marks done, let D
    be the least squared distance the scan found. A squared distance is
    rounded a few times, each by at most 2^-53 relative, so every
    ground-truth vertex whose computed squared distance to p is at most D,
    the full scan's minimiser among them, lies within sqrt(D) * (1 + 1e-15)
    < reach of p. Each of its coordinates is then within the reach of the
    scanned box, and rounding is monotone, so the box test in floats keeps
    it. So p's minimum over the candidates is the full scan's, the same
    float from the same _sq_distance_blocks expression, and the mean over
    the vertices in their order is bit-identical. The relative bound needs
    no square near the reach to underflow, which holds for reach > 1e-100;
    so a first reach outside 1e-100 .. 1e100 or a non-finite vertex takes
    the plain scan. So does an estimate whose box, grown by the first
    reach, misses the ground truth's, where no group would find a candidate.
    A mesh whose full scan fits in one block (at most 181 vertices) takes
    the plain scan before any of the grouping is computed.
    """
    if len(model.vertices) == 0:
        raise EmptyModel("ADD-S needs at least one vertex")
    est = pose_est.transform(model.vertices)
    gt = pose_gt.transform(model.vertices)
    n = len(est)
    if n * n <= _BLOCK_ELEMS:
        return float(np.sqrt(_nearest_sq(est, gt)).mean())
    lo, hi = est.min(axis=0), est.max(axis=0)
    per_axis = max(1, round((n / _GROUP_VERTICES) ** (1 / 3)))
    cell = float((hi - lo).max()) / per_axis
    first_reach = cell / 4
    if (not (1e-100 < first_reach < 1e100) or not np.isfinite(gt).all()
            or (lo - first_reach > gt.max(axis=0)).any() or (hi + first_reach < gt.min(axis=0)).any()):
        return float(np.sqrt(_nearest_sq(est, gt)).mean())
    ijk = np.minimum(((est - lo) / cell).astype(np.int64), per_axis - 1)
    keys = (ijk[:, 0] * per_axis + ijk[:, 1]) * per_axis + ijk[:, 2]
    order = np.argsort(keys, kind="stable")
    est = est[order]
    starts = np.flatnonzero(np.diff(keys[order], prepend=-1)).tolist()
    gt = gt[np.argsort(gt[:, 0], kind="stable")]
    gx = np.ascontiguousarray(gt[:, 0])
    nearest = np.empty(n)  # in the sorted order
    far = []  # rows that found no candidate: one plain scan at the end
    for a, b in zip(starts, starts[1:] + [n]):
        rows, reach = np.arange(a, b), first_reach
        while len(rows):
            pts = est[rows]
            low, high = pts.min(axis=0), pts.max(axis=0)
            cand = gt[np.searchsorted(gx, low[0] - reach, "left"):np.searchsorted(gx, high[0] + reach, "right")]
            cand = cand[((cand[:, 1:] >= low[1:] - reach) & (cand[:, 1:] <= high[1:] + reach)).all(axis=1)]
            if not len(cand):
                far.append(rows)
                break
            near = _nearest_sq(pts, cand)
            done = np.sqrt(near) * (1 + 1e-9) <= reach
            nearest[rows[done]] = near[done]
            rows, near = rows[~done], near[~done]
            if len(near):
                reach = float(np.sqrt(near.max())) * (1 + 2e-9)
    if far:
        rows = np.concatenate(far)
        nearest[rows] = _nearest_sq(est[rows], gt)
    return float(np.sqrt(nearest[np.argsort(order)]).mean())


def _min_over_symmetries(name: str, model: ObjectModel, pose_est: Pose, pose_gt: Pose, images) -> list[float]:
    """For each of the `images` (functions of (n, 3) points), the max distance
    between the images of the two posed vertex sets, minimized over the
    model's symmetry set. One sweep of the posed symmetries serves every
    image, _CHUNK_VERTICES posed vertices per pass.

    The sweep compares squared distances and takes one square root at the
    end. A squared distance is the same float np.linalg.norm sums (see
    _sq_norms), and sqrt is correctly rounded and monotone, so the square
    root of the minimum of the maxima is the minimum of the maxima of the
    square roots, bit for bit; a NaN propagates through max and min the same
    way."""
    v, syms = model.vertices, model.symmetries
    if len(v) == 0:
        raise EmptyModel(f"{name} needs at least one vertex")
    posed = pose_est.transform(v)
    ests = [image(posed) for image in images]
    r, t = pose_gt.rotation, pose_gt.translation
    step = max(1, _CHUNK_VERTICES // len(v))
    best = [np.inf] * len(images)
    for s in (syms[lo:lo + step] for lo in range(0, len(syms), step)):
        # Pose.compose's arithmetic without a Pose: a product of accepted rotations may miss the 1e-6 check
        rot, trans = r @ s[:, :, :3], (r @ s[:, :, 3:])[..., 0] + t
        gt = (v @ rot.transpose(0, 2, 1) + trans[:, None]).reshape(-1, 3)
        for k, (image, est) in enumerate(zip(images, ests)):
            sq = _sq_norms(est - image(gt).reshape(len(s), len(v), -1))
            best[k] = min(best[k], float(sq.max(axis=1).min()))
    return [float(np.sqrt(b)) for b in best]


def _same(pts: np.ndarray) -> np.ndarray:
    return pts


def e_mssd(model: ObjectModel, pose_est: Pose, pose_gt: Pose) -> float:
    """Max vertex distance, minimized over the model's symmetry set (mm)."""
    return _min_over_symmetries("MSSD", model, pose_est, pose_gt, [_same])[0]


def e_mspd(model: ObjectModel, pose_est: Pose, pose_gt: Pose, camera: CameraIntrinsics) -> float:
    """Max projected vertex distance, minimized over the symmetry set (px)."""
    return _min_over_symmetries("MSPD", model, pose_est, pose_gt, [partial(project_points, camera)])[0]


def e_vsd(
    model: ObjectModel,
    pose_est: Pose,
    pose_gt: Pose,
    camera: CameraIntrinsics,
    taus_mm,
) -> list[float]:
    """Depth-map disagreement fraction over the union of both footprints.

    Renders the model under both poses, in one render_distance_maps call,
    and, for each misalignment tolerance tau (mm), reports the fraction of
    union pixels that are not matched within tau in the intersection. An
    empty union yields 0 for every tau. `evaluate` computes the same
    fractions from the maps it renders for a whole image at once.
    """
    d_est, d_gt = render_distance_maps([(model, pose_est, camera), (model, pose_gt, camera)])
    return _vsd_of_maps(d_est, d_gt, taus_mm)


def _vsd_of_maps(d_est: DistanceMap, d_gt: DistanceMap, taus_mm) -> list[float]:
    """e_vsd of the estimate's and the ground truth's rendered maps."""
    taus = [float(t) for t in taus_mm]
    if not taus or any(t <= 0 for t in taus):
        raise ValueError("taus must be nonempty and positive")
    # the boxes' common rectangle holds the intersection; the union count is
    # the two footprints' counts minus it
    top, left = max(d_est.row0, d_gt.row0), max(d_est.col0, d_gt.col0)
    bottom = max(top, min(d.row0 + d.box.shape[0] for d in (d_est, d_gt)))
    right = max(left, min(d.col0 + d.box.shape[1] for d in (d_est, d_gt)))
    a, b = (d.box[top - d.row0:bottom - d.row0, left - d.col0:right - d.col0] for d in (d_est, d_gt))
    inter = (a > 0) & (b > 0)
    diff = np.abs(a[inter] - b[inter])
    union_count = int((d_est.box > 0).sum()) + int((d_gt.box > 0).sum()) - len(diff)
    if union_count == 0:
        return [0.0 for _ in taus]
    # Mismatch count over union count: both are exact integers, so one
    # division yields the correctly rounded value of the defining fraction.
    # (1 - matched/union can land a ulp below thresholds like 0.2 and flip
    # the strict recall comparison.)
    return [float((union_count - int((diff < tau).sum())) / union_count) for tau in taus]


def _recall_table(errors: np.ndarray, thresholds) -> np.ndarray:
    """Fraction of errors strictly below each threshold: (n,) errors give
    one recall per threshold, (n, k) errors a (k, n_thresholds) table."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.size == 0:
        raise EmptyInput("recall over an empty error list")
    thresholds = np.asarray(thresholds, dtype=np.float64)
    if (thresholds <= 0).any():
        raise ValueError("threshold must be positive")
    return (errors[..., None] < thresholds).sum(axis=0) / len(errors)


def recall_at(errors, threshold: float) -> float:
    """Fraction of errors strictly below the threshold."""
    return float(_recall_table(list(errors), [threshold])[0])


@dataclass(frozen=True)
class ThresholdGrid:
    """Correctness-threshold grids for the AR scores.

    The depth-discrepancy grid is the 10x10 product of tau fractions and
    correctness levels; surface-distance thresholds are fractions of the
    object diameter; projection thresholds are multiples of r = width/640.
    """

    vsd_taus: tuple[float, ...]
    vsd_correctness: tuple[float, ...]
    mssd_correctness: tuple[float, ...]
    mspd_correctness: tuple[float, ...]
    add_correctness: tuple[float, ...]
    image_width: int = 640

    def __post_init__(self):
        for name in ("vsd_taus", "vsd_correctness", "mssd_correctness", "mspd_correctness", "add_correctness"):
            grid = getattr(self, name)
            if len(grid) == 0 or any(t <= 0 for t in grid):
                raise ValueError(f"{name} must be positive")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be strictly increasing")
        if self.image_width < 1:
            raise ValueError("image_width must be >= 1")

    @property
    def r(self) -> float:
        """Projection-threshold unit: image_width / 640."""
        return self.image_width / 640.0

    @staticmethod
    def bop_default(image_width: int = 640) -> "ThresholdGrid":
        steps10 = tuple(k / 20.0 for k in range(1, 11))  # 0.05 .. 0.50
        return ThresholdGrid(
            vsd_taus=steps10,
            vsd_correctness=steps10,
            mssd_correctness=steps10,
            mspd_correctness=tuple(5.0 * k for k in range(1, 11)),  # 5 .. 50
            add_correctness=(0.02, 0.05, 0.10),
            image_width=image_width,
        )


@dataclass(frozen=True)
class ErrorSample:
    """One (scene, image, object) instance error for one metric.

    For the depth-discrepancy metric `vsd_errors` holds one value per tau in
    the grid and `error_value` is unused; every other metric uses the scalar.
    Missing detections are injected by the caller as +inf errors.
    """

    scene_id: int
    im_id: int
    obj_id: int
    metric_kind: str
    error_value: float = np.inf
    vsd_errors: tuple[float, ...] = ()

    def __post_init__(self):
        if self.metric_kind not in METRIC_KINDS:
            raise ValueError(f"unknown metric kind {self.metric_kind!r}")
        if self.metric_kind == "vsd":
            if len(self.vsd_errors) == 0:
                raise ValueError("vsd sample needs a per-tau error vector")
            if any(e < 0 for e in self.vsd_errors):
                raise ValueError("errors must be non-negative")
        elif self.error_value < 0:
            raise ValueError("errors must be non-negative")


@dataclass(frozen=True)
class ObjectRecall:
    """Per-object recall tables and their means."""

    obj_id: int
    n_instances: int
    ar_vsd: float
    ar_mssd: float
    ar_mspd: float
    ar_add: float | None
    add_kind: str | None
    vsd_recall: tuple[tuple[float, ...], ...]  # [tau index][correctness index]
    mssd_recall: tuple[float, ...]
    mspd_recall: tuple[float, ...]
    add_recall: tuple[float, ...]


@dataclass(frozen=True)
class ARReport:
    """Dataset-level AR scores plus the per-object breakdown."""

    ar_vsd: float
    ar_mssd: float
    ar_mspd: float
    ar_bop: float
    ar_add: float | None
    n_instances: int
    per_object: tuple[ObjectRecall, ...]
    grid: ThresholdGrid


def average_recall(samples, grid: ThresholdGrid, diameters: dict[int, float]) -> ARReport:
    """Pool samples per object, apply the threshold grids, and average.

    Per-object AR pools that object's instances across all images; the
    dataset AR is the unweighted mean of per-object ARs. The aggregate
    `ar_bop` is exactly the mean of the three component ARs.
    """
    samples = list(samples)
    if not samples:
        raise EmptyInput("no error samples")
    by_obj: dict[int, dict[str, list[ErrorSample]]] = {}
    for s in samples:
        if s.obj_id not in diameters:
            raise MissingDiameter(f"object {s.obj_id} has no diameter")
        by_obj.setdefault(s.obj_id, {}).setdefault(s.metric_kind, []).append(s)

    per_object = []
    for obj_id in sorted(by_obj):
        kinds = by_obj[obj_id]
        diameter = diameters[obj_id]
        for required in ("vsd", "mssd", "mspd"):
            if required not in kinds:
                raise EmptyInput(f"object {obj_id} has no {required} samples")

        vsd_vectors = []
        for s in kinds["vsd"]:
            if len(s.vsd_errors) != len(grid.vsd_taus):
                raise LengthMismatch(
                    f"vsd vector length {len(s.vsd_errors)} != tau grid length {len(grid.vsd_taus)}"
                )
            vsd_vectors.append(s.vsd_errors)
        vsd = _recall_table(vsd_vectors, grid.vsd_correctness)  # (n_taus, n_correctness)
        mssd = _recall_table([s.error_value for s in kinds["mssd"]], np.multiply(grid.mssd_correctness, diameter))
        mspd = _recall_table([s.error_value for s in kinds["mspd"]], np.multiply(grid.mspd_correctness, grid.r))
        add_kind = "add-s" if "add-s" in kinds else ("add" if "add" in kinds else None)
        add = None
        if add_kind is not None:
            add = _recall_table([s.error_value for s in kinds[add_kind]], np.multiply(grid.add_correctness, diameter))

        counts = {len(kinds[k]) for k in ("vsd", "mssd", "mspd")}
        if len(counts) != 1:
            raise LengthMismatch(f"object {obj_id}: unequal sample counts across metrics")
        per_object.append(
            ObjectRecall(
                obj_id=obj_id,
                n_instances=counts.pop(),
                ar_vsd=float(vsd.ravel().mean()),  # over the table's entries in row-major order
                ar_mssd=float(mssd.mean()),
                ar_mspd=float(mspd.mean()),
                ar_add=None if add is None else float(add.mean()),
                add_kind=add_kind,
                vsd_recall=tuple(tuple(row) for row in vsd.tolist()),
                mssd_recall=tuple(mssd.tolist()),
                mspd_recall=tuple(mspd.tolist()),
                add_recall=() if add is None else tuple(add.tolist()),
            )
        )

    ar_vsd = float(np.mean([o.ar_vsd for o in per_object]))
    ar_mssd = float(np.mean([o.ar_mssd for o in per_object]))
    ar_mspd = float(np.mean([o.ar_mspd for o in per_object]))
    with_add = [o.ar_add for o in per_object if o.ar_add is not None]
    ar_add = float(np.mean(with_add)) if with_add else None
    return ARReport(
        ar_vsd=ar_vsd,
        ar_mssd=ar_mssd,
        ar_mspd=ar_mspd,
        ar_bop=(ar_vsd + ar_mssd + ar_mspd) / 3.0,
        ar_add=ar_add,
        n_instances=sum(o.n_instances for o in per_object),
        per_object=tuple(per_object),
        grid=grid,
    )


@dataclass(frozen=True)
class EvalResult:
    report: ARReport
    samples: tuple[ErrorSample, ...]
    n_matched: int
    n_missing: int
    n_extra: int


def _instance_errors(model: ObjectModel, est: Pose | None, gt_pose: Pose, camera: CameraIntrinsics, key: tuple,
                     grid: ThresholdGrid, maps: tuple[DistanceMap, DistanceMap] | None) -> list[ErrorSample]:
    """The instance's samples; `maps` are its estimate's and ground truth's
    rendered maps, None when there is no estimate."""
    scene_id, im_id, obj_id = key
    add_kind = "add-s" if model.symmetric_flag else "add"
    if est is None:
        inf_vec = (np.inf,) * len(grid.vsd_taus)
        return [
            ErrorSample(scene_id, im_id, obj_id, "vsd", vsd_errors=inf_vec),
            ErrorSample(scene_id, im_id, obj_id, "mssd"),
            ErrorSample(scene_id, im_id, obj_id, "mspd"),
            ErrorSample(scene_id, im_id, obj_id, add_kind),
        ]
    taus_mm = [f * model.diameter for f in grid.vsd_taus]
    vsd = _vsd_of_maps(*maps, taus_mm)
    add_err = e_add_s(model, est, gt_pose) if model.symmetric_flag else e_add(model, est, gt_pose)
    mssd, mspd = _min_over_symmetries("MSSD", model, est, gt_pose, [_same, partial(project_points, camera)])
    return [
        ErrorSample(scene_id, im_id, obj_id, "vsd", vsd_errors=tuple(vsd)),
        ErrorSample(scene_id, im_id, obj_id, "mssd", error_value=mssd),
        ErrorSample(scene_id, im_id, obj_id, "mspd", error_value=mspd),
        ErrorSample(scene_id, im_id, obj_id, add_kind, error_value=add_err),
    ]


def instance_key(rec) -> tuple[int, int, int]:
    """The (scene_id, im_id, obj_id) key that matches estimates to ground truth."""
    return (rec.scene_id, rec.im_id, rec.obj_id)


def match_estimates(estimates, gt_keys) -> tuple[dict, int]:
    """Pick the estimate scored for each ground-truth key, in one pass.

    Duplicate estimates for a key keep the highest score, the earliest on
    ties. Returns that estimate per matched key and the number of
    estimates whose key is not in `gt_keys`.
    """
    best, n_extra = {}, 0
    for est in estimates:
        key = instance_key(est)
        if key not in gt_keys:
            n_extra += 1
        elif key not in best or est.score > best[key].score:
            best[key] = est
    return best, n_extra


def evaluate(estimates, ground_truth, models: dict[int, ObjectModel],
             grid: ThresholdGrid | None = None) -> EvalResult:
    """Match estimates to ground-truth instances and aggregate AR.

    `estimates` and `ground_truth` may be any iterables; each is read once.
    Estimates are matched by `match_estimates`: estimates with no ground
    truth are counted but ignored, and ground truth with no estimate
    contributes +inf errors. Instances are scored serially in key order,
    one image (scene_id, im_id) at a time: the depth maps of an image's
    scored instances, estimate and ground truth, are rendered in one
    render_distance_maps call, and only one image's maps are held at once.
    All images must share one width so a single projection-threshold unit
    applies.
    """
    ground_truth = list(ground_truth)
    if not ground_truth:
        raise EmptyInput("no ground-truth instances")
    for rec in ground_truth:
        if rec.obj_id not in models:
            raise MissingDiameter(f"object {rec.obj_id} has no model")
    widths = {rec.camera.width for rec in ground_truth}
    if len(widths) != 1:
        raise InvalidConfig(f"all images must share one width, got {sorted(widths)}")
    if grid is None:
        grid = ThresholdGrid.bop_default(image_width=widths.pop())

    gt_by_key = {}
    for rec in sorted(ground_truth, key=instance_key):
        key = instance_key(rec)
        if key in gt_by_key:
            raise InvalidConfig(f"duplicate ground-truth instance {key}")
        gt_by_key[key] = rec

    est_by_key, n_extra = match_estimates(estimates, gt_by_key)
    samples = []
    for _, image in itertools.groupby(gt_by_key.items(), key=lambda item: item[0][:2]):
        image = [(key, rec, est_by_key[key].pose if key in est_by_key else None) for key, rec in image]
        maps = iter(render_distance_maps([(models[rec.obj_id], pose, rec.camera)
                                          for _, rec, est in image if est is not None for pose in (est, rec.pose)]))
        for key, rec, est in image:
            samples += _instance_errors(models[rec.obj_id], est, rec.pose, rec.camera, key, grid,
                                        None if est is None else (next(maps), next(maps)))
    diameters = {obj_id: m.diameter for obj_id, m in models.items()}
    report = average_recall(samples, grid, diameters)
    return EvalResult(
        report=report,
        samples=tuple(samples),
        n_matched=len(est_by_key),
        n_missing=len(gt_by_key) - len(est_by_key),
        n_extra=n_extra,
    )


def _field_dict(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def report_to_dict(report: ARReport) -> dict:
    """JSON-ready representation of an ARReport: its fields by name, with the
    grid's and each ObjectRecall's fields nested the same way (tuples are
    written as JSON arrays)."""
    payload = _field_dict(report)
    payload["grid"] = _field_dict(report.grid)
    payload["per_object"] = [_field_dict(o) for o in report.per_object]
    return payload


def report_to_csv(report: ARReport) -> str:
    """Flat CSV: one row per (object, metric, tau, threshold) recall, then aggregates."""
    lines = ["scope,obj_id,metric,tau,threshold,value"]

    def row(scope, obj, metric, tau, thr, val):
        lines.append(f"{scope},{obj},{metric},{tau},{thr},{val!r}")

    for o in report.per_object:
        for k, tau in enumerate(report.grid.vsd_taus):
            for j, thr in enumerate(report.grid.vsd_correctness):
                row("object", o.obj_id, "vsd", tau, thr, o.vsd_recall[k][j])
        for thr, rec in zip(report.grid.mssd_correctness, o.mssd_recall):
            row("object", o.obj_id, "mssd", "", thr, rec)
        for thr, rec in zip(report.grid.mspd_correctness, o.mspd_recall):
            row("object", o.obj_id, "mspd", "", thr, rec)
        for thr, rec in zip(report.grid.add_correctness, o.add_recall):
            row("object", o.obj_id, o.add_kind, "", thr, rec)
        row("object", o.obj_id, "ar_vsd", "", "", o.ar_vsd)
        row("object", o.obj_id, "ar_mssd", "", "", o.ar_mssd)
        row("object", o.obj_id, "ar_mspd", "", "", o.ar_mspd)
        if o.ar_add is not None:
            row("object", o.obj_id, "ar_add", "", "", o.ar_add)
    row("dataset", "", "ar_vsd", "", "", report.ar_vsd)
    row("dataset", "", "ar_mssd", "", "", report.ar_mssd)
    row("dataset", "", "ar_mspd", "", "", report.ar_mspd)
    row("dataset", "", "ar_bop", "", "", report.ar_bop)
    if report.ar_add is not None:
        row("dataset", "", "ar_add", "", "", report.ar_add)
    return "\n".join(lines) + "\n"
