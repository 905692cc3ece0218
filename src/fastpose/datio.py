"""File ingestion and serialization for evaluation runs.

Three on-disk formats:

* results CSV: one pose estimate per line under the header
  scene_id,im_id,obj_id,score,R,t,time with R as 9 and t as 3
  space-separated reals (row-major, millimeters), time in seconds
  (-1 when unmeasured);
* object meshes: an ASCII PLY subset (triangles only);
* ground truth JSON: instances (ids, camera, cam_R_m2c/cam_t_m2c pose) plus
  per-object metadata (diameter override, symmetry transforms, symmetric
  flag).
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    IndexOutOfRange,
    MalformedHeader,
    MalformedLine,
    SchemaViolation,
    UnsupportedFormat,
)
from .geom import CameraIntrinsics, ObjectModel, Pose, make_model

RESULT_HEADER = "scene_id,im_id,obj_id,score,R,t,time"


@dataclass(frozen=True)
class EstimateRecord:
    scene_id: int
    im_id: int
    obj_id: int
    score: float
    pose: Pose
    time_s: float = -1.0


@dataclass(frozen=True)
class GroundTruthRecord:
    scene_id: int
    im_id: int
    obj_id: int
    pose: Pose
    camera: CameraIntrinsics


@dataclass(frozen=True)
class ObjectMeta:
    """Per-object overrides from the ground-truth JSON. A None diameter
    means "use the mesh's computed diameter"."""

    diameter: float | None = None
    symmetric: bool = False
    symmetries: tuple[Pose, ...] = field(default_factory=tuple)


def _floats(text: str, count: int, line_no: int, what: str) -> np.ndarray:
    parts = text.split()
    if len(parts) != count:
        raise MalformedLine(line_no, f"{what} needs {count} numbers, got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise MalformedLine(line_no, f"{what}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise MalformedLine(line_no, f"{what} must be finite")
    return np.array(values)


def parse_result_csv(path) -> list[EstimateRecord]:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    rows = [(i + 1, ln) for i, ln in enumerate(lines) if ln.strip()]
    if not rows or rows[0][1].strip() != RESULT_HEADER:
        raise MalformedLine(1, f"header must be exactly {RESULT_HEADER!r}")
    records = []
    for line_no, line in rows[1:]:
        fields = line.split(",")
        if len(fields) != 7:
            raise MalformedLine(line_no, f"expected 7 comma-separated fields, got {len(fields)}")
        try:
            scene_id, im_id, obj_id = (int(fields[i]) for i in range(3))
            score = float(fields[3])
            time = float(fields[6])
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from exc
        if not (math.isfinite(score) and math.isfinite(time)):
            raise MalformedLine(line_no, f"score and time must be finite, got {score} and {time}")
        if time < 0 and time != -1:
            raise MalformedLine(line_no, f"time must be >= 0 or -1 (unknown), got {time}")
        r = _floats(fields[4], 9, line_no, "R").reshape(3, 3)
        t = _floats(fields[5], 3, line_no, "t")
        records.append(EstimateRecord(scene_id, im_id, obj_id, score, Pose(r, t), time))
    return records


def serialize_result_csv(records: list[EstimateRecord]) -> str:
    lines = [RESULT_HEADER]
    for rec in records:
        r = " ".join(f"{v:.17g}" for v in rec.pose.rotation.reshape(-1))
        t = " ".join(f"{v:.17g}" for v in rec.pose.translation)
        lines.append(f"{rec.scene_id},{rec.im_id},{rec.obj_id},{rec.score:.17g},{r},{t},{rec.time_s:.17g}")
    return "\n".join(lines) + "\n"


def write_result_csv(path, records: list[EstimateRecord]) -> None:
    Path(path).write_text(serialize_result_csv(records), encoding="utf-8")


def _element_count(text: str, line_no: int) -> int:
    try:
        count = int(text)
    except ValueError:
        count = -1
    if count < 0:
        raise MalformedHeader(f"line {line_no}: element count must be a non-negative integer, got {text!r}")
    return count


def parse_ply(path, meta: ObjectMeta | None = None, where: str = "object") -> ObjectModel:
    """ASCII PLY subset: vertex element with x/y/z, triangle faces only.

    Returns make_model's ObjectModel for `meta` (default: computed diameter,
    identity symmetry only, not symmetric); a misfit is SchemaViolation at `where`.
    Extra scalar vertex properties are skipped by position; anything beyond
    the subset (binary encodings, list vertex properties, non-triangle
    faces) errors.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != "ply":
        raise MalformedHeader("file does not start with 'ply'")
    n_vertices = n_faces = None
    xyz_cols: dict[str, int] = {}
    vertex_props = 0
    current = None
    fmt_seen = False
    body_start = None
    for i, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("comment"):
            continue
        if line == "end_header":
            body_start = i
            break
        parts = line.split()
        if parts[0] == "format":
            if parts[1:] != ["ascii", "1.0"]:
                raise UnsupportedFormat(f"only 'format ascii 1.0' is supported, got {line!r}")
            fmt_seen = True
        elif parts[0] == "element":
            if len(parts) != 3:
                raise MalformedHeader(f"line {i}: bad element declaration {line!r}")
            if parts[1] == "vertex":
                n_vertices = _element_count(parts[2], i)
                current = "vertex"
            elif parts[1] == "face":
                n_faces = _element_count(parts[2], i)
                current = "face"
            else:
                raise UnsupportedFormat(f"unsupported element {parts[1]!r}")
        elif parts[0] == "property":
            if current == "vertex":
                if parts[1] == "list":
                    raise UnsupportedFormat("list properties on vertices are not supported")
                name = parts[-1]
                if name in ("x", "y", "z"):
                    xyz_cols[name] = vertex_props
                vertex_props += 1
            elif current == "face":
                if parts[1] != "list" or parts[-1] not in ("vertex_indices", "vertex_index"):
                    raise UnsupportedFormat(f"unsupported face property {line!r}")
            else:
                raise MalformedHeader(f"line {i}: property outside an element")
        else:
            raise MalformedHeader(f"line {i}: unrecognized header line {line!r}")
    if body_start is None:
        raise MalformedHeader("missing end_header")
    if not fmt_seen:
        raise MalformedHeader("missing format declaration")
    if n_vertices is None:
        raise MalformedHeader("missing vertex element")
    if set(xyz_cols) != {"x", "y", "z"}:
        raise MalformedHeader("vertex element must declare x, y, and z")

    body = lines[body_start:]
    if len(body) < n_vertices + (n_faces or 0):
        raise MalformedLine(body_start + len(body) + 1, "file ends before all elements are read")
    vertices = np.zeros((n_vertices, 3))
    for v in range(n_vertices):
        line_no = body_start + 1 + v
        parts = body[v].split()
        if len(parts) < vertex_props:
            raise MalformedLine(line_no, f"vertex needs {vertex_props} values, got {len(parts)}")
        try:
            vertices[v] = [float(parts[xyz_cols[a]]) for a in "xyz"]
        except ValueError as exc:
            raise MalformedLine(line_no, str(exc)) from exc
    triangles = np.zeros((n_faces or 0, 3), dtype=np.int64)
    for f in range(n_faces or 0):
        line_no = body_start + 1 + n_vertices + f
        parts = body[n_vertices + f].split()
        try:
            count = int(parts[0])
            idx = [int(p) for p in parts[1 : 1 + count]]
        except (ValueError, IndexError) as exc:
            raise MalformedLine(line_no, str(exc)) from exc
        if count != 3 or len(parts) != 4:
            raise UnsupportedFormat(f"line {line_no}: only triangle faces are supported")
        if min(idx) < 0 or max(idx) >= n_vertices:
            raise IndexOutOfRange(f"line {line_no}: vertex index outside 0..{n_vertices - 1}")
        triangles[f] = idx
    meta = meta or ObjectMeta()
    try:
        return make_model(vertices, triangles, meta.symmetries, meta.symmetric, meta.diameter)
    except ValueError as exc:
        raise SchemaViolation(where, str(exc)) from exc


def _need(obj, key, where, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaViolation(where, f"missing key {key!r}")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise SchemaViolation(f"{where}.{key}", f"expected {kind.__name__ if not isinstance(kind, tuple) else 'number'}")
    return val


def _camera_from_k(cam_k, im_size, where) -> CameraIntrinsics:
    if not isinstance(cam_k, list) or len(cam_k) != 9:
        raise SchemaViolation(where, "cam_K must be a list of 9 numbers")
    k = [float(v) for v in cam_k]
    if k[1] != 0 or k[3] != 0 or k[6] != 0 or k[7] != 0 or k[8] != 1:
        raise SchemaViolation(where, "cam_K must be [fx, 0, cx, 0, fy, cy, 0, 0, 1]")
    if k[0] <= 0 or k[4] <= 0:
        raise SchemaViolation(where, "focal lengths must be positive")
    if not (isinstance(im_size, list) and len(im_size) == 2):
        raise SchemaViolation(where.rsplit(".", 1)[0] + ".im_size", "im_size must be [width, height]")
    return CameraIntrinsics(fx=k[0], fy=k[4], cx=k[2], cy=k[5], width=int(im_size[0]), height=int(im_size[1]))


def _pose_from_lists(r_list, t_list, where) -> Pose:
    if not (isinstance(r_list, list) and len(r_list) == 9):
        raise SchemaViolation(f"{where}.cam_R_m2c", "must be a list of 9 numbers (row-major)")
    if not (isinstance(t_list, list) and len(t_list) == 3):
        raise SchemaViolation(f"{where}.cam_t_m2c", "must be a list of 3 numbers")
    t = np.array(t_list, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise SchemaViolation(f"{where}.cam_t_m2c", "must be finite numbers")
    return Pose(np.array(r_list, dtype=np.float64).reshape(3, 3), t)


def parse_gt_json(path) -> tuple[list[GroundTruthRecord], dict[int, ObjectMeta]]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaViolation("$", f"not valid JSON ({exc})") from exc
    instances = _need(doc, "instances", "$", list)
    objects_raw = _need(doc, "objects", "$", dict)

    objects: dict[int, ObjectMeta] = {}
    for key, entry in objects_raw.items():
        where = f"$.objects.{key}"
        try:
            obj_id = int(key)
        except ValueError as exc:
            raise SchemaViolation(where, "object keys must be integer ids") from exc
        if not isinstance(entry, dict):
            raise SchemaViolation(where, "object entry must be a JSON object")
        diameter = entry.get("diameter")
        if diameter is not None:
            if not isinstance(diameter, (int, float)) or not 0 < diameter < math.inf:
                raise SchemaViolation(f"{where}.diameter", "must be a positive finite number")
            diameter = float(diameter)
        symmetric = bool(entry.get("symmetric", False))
        syms = []
        for j, flat in enumerate(entry.get("symmetries", [])):
            if not (isinstance(flat, list) and len(flat) == 12):
                raise SchemaViolation(f"{where}.symmetries[{j}]", "must be 12 numbers (3x4 row-major)")
            m = np.array(flat, dtype=np.float64).reshape(3, 4)
            if not np.all(np.isfinite(m)):
                raise SchemaViolation(f"{where}.symmetries[{j}]", "must be finite numbers")
            syms.append(Pose(m[:, :3], m[:, 3]))
        objects[obj_id] = ObjectMeta(diameter, symmetric, tuple(syms))

    records = []
    for i, inst in enumerate(instances):
        where = f"$.instances[{i}]"
        scene_id = int(_need(inst, "scene_id", where, int))
        im_id = int(_need(inst, "im_id", where, int))
        obj_id = int(_need(inst, "obj_id", where, int))
        if obj_id not in objects:
            raise SchemaViolation(f"{where}.obj_id", f"object {obj_id} has no entry in $.objects")
        camera = _camera_from_k(_need(inst, "cam_K", where), _need(inst, "im_size", where), f"{where}.cam_K")
        pose = _pose_from_lists(_need(inst, "cam_R_m2c", where), _need(inst, "cam_t_m2c", where), where)
        records.append(GroundTruthRecord(scene_id, im_id, obj_id, pose, camera))
    return records, objects


def discover_meshes(directory) -> dict[int, Path]:
    """Map object ids to mesh paths: the id is the trailing digits of the
    file stem (obj_000003.ply -> 3). Files without trailing digits are skipped."""
    out = {}
    for path in sorted(Path(directory).glob("*.ply")):
        m = re.search(r"(\d+)$", path.stem)
        if m:
            out[int(m.group(1))] = path
    return out


def load_object_models(mesh_dir, objects: dict[int, ObjectMeta]) -> dict[int, ObjectModel]:
    """Parse and combine every mesh required by the metadata table."""
    meshes = discover_meshes(mesh_dir)
    models = {}
    for obj_id, meta in sorted(objects.items()):
        if obj_id not in meshes:
            raise FileNotFoundError(f"{mesh_dir}: no .ply mesh with trailing id {obj_id}")
        models[obj_id] = parse_ply(meshes[obj_id], meta, where=f"$.objects.{obj_id}")
    return models
