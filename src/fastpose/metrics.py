"""Pose-error metrics and Average Recall aggregation.

Implements the five instance-level errors (depth-map discrepancy, maximum
symmetry-aware surface / projection distance, average vertex distance and
its closest-point variant) and the recall grids that turn pooled errors
into per-object and dataset-level AR scores. Correctness comparisons are
strict less-than everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, EmptyModel, InvalidConfig, LengthMismatch, MissingDiameter
from .geom import CameraIntrinsics, ObjectModel, Pose, _sq_distance_blocks, project_points
from .raster import render_distance_map

METRIC_KINDS = ("vsd", "mssd", "mspd", "add", "add-s")


def e_add(model: ObjectModel, pose_est: Pose, pose_gt: Pose) -> float:
    """Mean vertex distance between the two posed models (mm)."""
    if len(model.vertices) == 0:
        raise EmptyModel("ADD needs at least one vertex")
    d = pose_est.transform(model.vertices) - pose_gt.transform(model.vertices)
    return float(np.linalg.norm(d, axis=1).mean())


def e_add_s(model: ObjectModel, pose_est: Pose, pose_gt: Pose) -> float:
    """Mean distance from each estimated vertex to its closest ground-truth vertex (mm)."""
    if len(model.vertices) == 0:
        raise EmptyModel("ADD-S needs at least one vertex")
    est = pose_est.transform(model.vertices)
    gt = pose_gt.transform(model.vertices)
    nearest = np.concatenate([d2.min(axis=1) for d2 in _sq_distance_blocks(est, gt)])
    return float(np.sqrt(nearest).mean())


def _min_over_symmetries(name: str, model: ObjectModel, pose_est: Pose, pose_gt: Pose, image) -> float:
    """Max distance between the `image` of the two posed vertex sets,
    minimized over the model's symmetry set."""
    if len(model.vertices) == 0:
        raise EmptyModel(f"{name} needs at least one vertex")
    est = image(pose_est.transform(model.vertices))
    r, t = pose_gt.rotation, pose_gt.translation
    best = np.inf
    for sym in model.symmetries:
        # Pose.compose's arithmetic without a Pose: the product of two accepted
        # rotations may miss the 1e-6 orthonormality check by rounding
        rot, trans = r @ sym.rotation, r @ sym.translation + t
        gt_sym = image(model.vertices @ rot.T + trans)
        best = min(best, float(np.linalg.norm(est - gt_sym, axis=1).max()))
    return best


def e_mssd(model: ObjectModel, pose_est: Pose, pose_gt: Pose) -> float:
    """Max vertex distance, minimized over the model's symmetry set (mm)."""
    return _min_over_symmetries("MSSD", model, pose_est, pose_gt, lambda pts: pts)


def e_mspd(model: ObjectModel, pose_est: Pose, pose_gt: Pose, camera: CameraIntrinsics) -> float:
    """Max projected vertex distance, minimized over the symmetry set (px)."""
    return _min_over_symmetries("MSPD", model, pose_est, pose_gt, lambda pts: project_points(camera, pts))


def e_vsd(
    model: ObjectModel,
    pose_est: Pose,
    pose_gt: Pose,
    camera: CameraIntrinsics,
    taus_mm,
) -> list[float]:
    """Depth-map disagreement fraction over the union of both footprints.

    Renders the model under both poses and, for each misalignment tolerance
    tau (mm), reports the fraction of union pixels that are not matched
    within tau in the intersection. An empty union yields 0 for every tau.
    """
    taus = [float(t) for t in taus_mm]
    if not taus or any(t <= 0 for t in taus):
        raise ValueError("taus must be nonempty and positive")
    d_est = render_distance_map(model, pose_est, camera)
    d_gt = render_distance_map(model, pose_gt, camera)
    inter = d_est.visible & d_gt.visible
    union_count = int((d_est.visible | d_gt.visible).sum())
    if union_count == 0:
        return [0.0 for _ in taus]
    diff = np.abs(d_est.depth[inter] - d_gt.depth[inter])
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
    vsd_table: tuple[tuple[float, ...], ...]  # [tau index][correctness index]
    mssd_table: tuple[float, ...]
    mspd_table: tuple[float, ...]
    add_table: tuple[float, ...]


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
                vsd_table=tuple(tuple(row) for row in vsd.tolist()),
                mssd_table=tuple(mssd.tolist()),
                mspd_table=tuple(mspd.tolist()),
                add_table=() if add is None else tuple(add.tolist()),
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


def _instance_errors(model: ObjectModel, est: Pose | None, gt_pose: Pose,
                     camera: CameraIntrinsics, key: tuple, grid: ThresholdGrid) -> list[ErrorSample]:
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
    vsd = e_vsd(model, est, gt_pose, camera, taus_mm)
    add_err = e_add_s(model, est, gt_pose) if model.symmetric_flag else e_add(model, est, gt_pose)
    return [
        ErrorSample(scene_id, im_id, obj_id, "vsd", vsd_errors=tuple(vsd)),
        ErrorSample(scene_id, im_id, obj_id, "mssd", error_value=e_mssd(model, est, gt_pose)),
        ErrorSample(scene_id, im_id, obj_id, "mspd", error_value=e_mspd(model, est, gt_pose, camera)),
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
    contributes +inf errors. Instances are scored serially in key order.
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
    for key, rec in gt_by_key.items():
        est = est_by_key.get(key)
        samples += _instance_errors(models[rec.obj_id], None if est is None else est.pose,
                                    rec.pose, rec.camera, key, grid)
    diameters = {obj_id: m.diameter for obj_id, m in models.items()}
    report = average_recall(samples, grid, diameters)
    return EvalResult(
        report=report,
        samples=tuple(samples),
        n_matched=len(est_by_key),
        n_missing=len(gt_by_key) - len(est_by_key),
        n_extra=n_extra,
    )


def report_to_dict(report: ARReport) -> dict:
    """JSON-ready representation of an ARReport."""
    return {
        "ar_vsd": report.ar_vsd,
        "ar_mssd": report.ar_mssd,
        "ar_mspd": report.ar_mspd,
        "ar_bop": report.ar_bop,
        "ar_add": report.ar_add,
        "n_instances": report.n_instances,
        "grid": {
            "vsd_taus": list(report.grid.vsd_taus),
            "vsd_correctness": list(report.grid.vsd_correctness),
            "mssd_correctness": list(report.grid.mssd_correctness),
            "mspd_correctness": list(report.grid.mspd_correctness),
            "add_correctness": list(report.grid.add_correctness),
            "image_width": report.grid.image_width,
        },
        "per_object": [
            {
                "obj_id": o.obj_id,
                "n_instances": o.n_instances,
                "ar_vsd": o.ar_vsd,
                "ar_mssd": o.ar_mssd,
                "ar_mspd": o.ar_mspd,
                "ar_add": o.ar_add,
                "add_kind": o.add_kind,
                "vsd_recall": [list(row) for row in o.vsd_table],
                "mssd_recall": list(o.mssd_table),
                "mspd_recall": list(o.mspd_table),
                "add_recall": list(o.add_table),
            }
            for o in report.per_object
        ],
    }


def report_to_csv(report: ARReport) -> str:
    """Flat CSV: one row per (object, metric, tau, threshold) recall, then aggregates."""
    lines = ["scope,obj_id,metric,tau,threshold,value"]

    def row(scope, obj, metric, tau, thr, val):
        lines.append(f"{scope},{obj},{metric},{tau},{thr},{val!r}")

    for o in report.per_object:
        for k, tau in enumerate(report.grid.vsd_taus):
            for j, thr in enumerate(report.grid.vsd_correctness):
                row("object", o.obj_id, "vsd", tau, thr, o.vsd_table[k][j])
        for thr, rec in zip(report.grid.mssd_correctness, o.mssd_table):
            row("object", o.obj_id, "mssd", "", thr, rec)
        for thr, rec in zip(report.grid.mspd_correctness, o.mspd_table):
            row("object", o.obj_id, "mspd", "", thr, rec)
        for thr, rec in zip(report.grid.add_correctness, o.add_table):
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
