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

import itertools
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    FastposeError,
    IndexOutOfRange,
    InvalidRotation,
    MalformedHeader,
    MalformedLine,
    SchemaViolation,
    UnsupportedFormat,
)
from .geom import CameraIntrinsics, ObjectModel, Pose, is_rotation, make_model

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
    """Per-object overrides from the ground-truth JSON: a None diameter means
    "use the mesh's computed diameter"; `symmetries` are the listed (S, 3, 4) rows."""

    diameter: float | None = None
    symmetric: bool = False
    symmetries: np.ndarray = field(default_factory=lambda: np.zeros((0, 3, 4)))


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
        raise MalformedLine(rows[0][0] if rows else 1, f"header must be exactly {RESULT_HEADER!r}")
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
        try:
            pose = Pose(r, t)
        except InvalidRotation as exc:
            raise InvalidRotation(f"line {line_no}: R: {exc}") from exc
        records.append(EstimateRecord(scene_id, im_id, obj_id, score, pose, time))
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


_PLY_CHUNK_LINES = 1 << 9  # body lines the per-line rules hold as Python lists at once, about 150 KB


def _vertex_line(line: str, line_no: int, props: int, xyz: list[int]) -> list[float]:
    """The values of a vertex line, or the error of the first rule it breaks."""
    parts = line.split()
    if len(parts) != props:
        raise MalformedLine(line_no, f"vertex needs {props} values, got {len(parts)}")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise MalformedLine(line_no, str(exc)) from exc
    if not all(math.isfinite(values[c]) for c in xyz):
        raise MalformedLine(line_no, "vertex coordinates must be finite")
    return values


def _face_line(line: str, line_no: int, n_vertices: int) -> list[int]:
    """The count and indices of a face line, or the error of the first rule it breaks."""
    parts = line.split()
    try:
        count = int(parts[0])
        idx = [int(p) for p in parts[1 : 1 + count]]
    except (ValueError, IndexError) as exc:
        raise MalformedLine(line_no, str(exc)) from exc
    if count != 3:
        raise UnsupportedFormat(f"line {line_no}: only triangle faces are supported")
    if len(parts) != 4:
        raise MalformedLine(line_no, f"triangle face needs 3 vertex indices, got {len(parts) - 1}")
    if min(idx) < 0 or max(idx) >= n_vertices:
        raise IndexOutOfRange(f"line {line_no}: vertex index outside 0..{n_vertices - 1}")
    return [count, *idx]


def _element_rows(lines: list[str], first_line_no: int, width: int, dtype, valid, line_rules) -> np.ndarray:
    """An element's body lines as one (len(lines), width) array.

    One np.loadtxt call, NumPy's C tokenizer and converter, reads the whole
    body. Its floats come from the correctly rounded conversion float() uses
    and its integers are exact, so every value it reads is the per-line rules'
    value. It refuses more than they do (underscores, non-ASCII digits) and
    skips blank lines, hence the shape check. When it refuses the body or the
    array check `valid` fails, `line_rules` read the element again line by
    line, _PLY_CHUNK_LINES lines at a time: they raise the first bad line's
    error with its number, or return each line's values.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # "input contained no data" and the like refuse the body
            rows = np.loadtxt(lines, dtype, comments=None, ndmin=2)
    except (ValueError, OverflowError, Warning):
        rows = None
    if rows is not None and rows.shape == (len(lines), width) and valid(rows):
        return rows
    rows = np.empty((len(lines), width), dtype)
    for lo in range(0, len(lines), _PLY_CHUNK_LINES):
        chunk = lines[lo : lo + _PLY_CHUNK_LINES]
        rows[lo : lo + len(chunk)] = [line_rules(line, first_line_no + i) for i, line in enumerate(chunk, lo)]
    return rows


def _ply_arrays(path) -> tuple[np.ndarray, np.ndarray]:
    """The vertices and triangles of an ASCII PLY file (see parse_ply)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != "ply":
        raise MalformedHeader("file does not start with 'ply'")
    counts: dict[str, int] = {}  # element name -> count, in header order
    vertex_props: list[str] = []  # vertex property names, in column order
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
            current = parts[1]
            if current not in ("vertex", "face"):
                raise UnsupportedFormat(f"unsupported element {current!r}")
            if current in counts:
                raise MalformedHeader(f"line {i}: element {current!r} is declared twice")
            counts[current] = _element_count(parts[2], i)
        elif parts[0] == "property":
            if len(parts) != (5 if parts[1:2] == ["list"] else 3):
                raise MalformedHeader(f"line {i}: malformed property declaration {line!r}")
            if current == "vertex":
                if parts[1] == "list":
                    raise UnsupportedFormat("list properties on vertices are not supported")
                if parts[-1] in vertex_props:
                    raise MalformedHeader(f"line {i}: vertex property {parts[-1]!r} is declared twice")
                vertex_props.append(parts[-1])
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
    if "vertex" not in counts:
        raise MalformedHeader("missing vertex element")
    if not {"x", "y", "z"} <= set(vertex_props):
        raise MalformedHeader("vertex element must declare x, y, and z")

    body = lines[body_start:]
    n_vertices, n_faces = counts["vertex"], counts.get("face", 0)
    if len(body) < n_vertices + n_faces:
        raise MalformedLine(body_start + len(body) + 1, "file ends before all elements are read")
    xyz = [vertex_props.index(a) for a in "xyz"]
    width = len(vertex_props)
    arrays, start = {"face": np.empty((0, 3), np.int64)}, 0
    for name, count in counts.items():  # header order, so the first failing line raises
        if name == "vertex":
            arrays[name] = _element_rows(
                body[start : start + count], body_start + 1 + start, width, np.float64,
                lambda r: np.isfinite(r[:, xyz]).all(),
                lambda line, line_no: _vertex_line(line, line_no, width, xyz),
            )[:, xyz]
        else:
            arrays[name] = _element_rows(
                body[start : start + count], body_start + 1 + start, 4, np.int64,
                lambda f: ((f[:, 0] == 3) & (f[:, 1:] >= 0).all(axis=1) & (f[:, 1:] < n_vertices).all(axis=1)).all(),
                lambda line, line_no: _face_line(line, line_no, n_vertices),
            )[:, 1:]
        start += count
    return arrays["vertex"], arrays["face"]


def parse_ply(path, meta: ObjectMeta | None = None, where: str = "object") -> ObjectModel:
    """ASCII PLY subset: vertex element with x/y/z, triangle faces only.

    Returns make_model's ObjectModel for `meta` (default: computed diameter,
    identity symmetry only, not symmetric); a misfit is SchemaViolation at `where`.
    The body is read in the header's element order. A vertex line holds
    exactly its declared scalar properties, all numbers; extra ones are
    skipped by position. Anything beyond the subset (binary encodings, list
    vertex properties, non-triangle faces, other or repeated elements) errors.
    """
    vertices, triangles = _ply_arrays(path)  # the file's lines are freed before the model is built
    meta = meta or ObjectMeta()
    try:
        return make_model(vertices, triangles, meta.symmetries, meta.symmetric, meta.diameter)
    except InvalidRotation as exc:  # named by its row in meta: make_model may prepend the identity
        bad = np.argmin(is_rotation(meta.symmetries[:, :, :3]))
        raise InvalidRotation(f"{where}.symmetries[{bad}]: R is not a rotation within 1e-6") from exc
    except ValueError as exc:
        raise SchemaViolation(where, str(exc)) from exc


def _need(obj, key, where, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaViolation(where, f"missing key {key!r}")
    val = obj[key]
    # a JSON true/false parses to bool, an int subclass, and is none of the kinds asked for
    if kind is not None and (not isinstance(val, kind) or type(val) is bool):
        raise SchemaViolation(f"{where}.{key}", f"expected {kind.__name__ if not isinstance(kind, tuple) else 'number'}")
    return val


def _finite_number(value) -> bool:
    """A JSON int or float that is finite as a float64; a bool is no number."""
    if type(value) is int:
        return abs(value) <= sys.float_info.max  # exact int/float comparison, no overflow
    return type(value) is float and math.isfinite(value)


def _camera_from_k(cam_k, im_size, where) -> CameraIntrinsics:
    if not (isinstance(cam_k, list) and len(cam_k) == 9):
        raise SchemaViolation(where, "cam_K must be a list of 9 numbers")
    if not all(_finite_number(v) for v in cam_k):
        raise SchemaViolation(where, "cam_K entries must be finite numbers")
    k = [float(v) for v in cam_k]
    if k[1] != 0 or k[3] != 0 or k[6] != 0 or k[7] != 0 or k[8] != 1:
        raise SchemaViolation(where, "cam_K must be [fx, 0, cx, 0, fy, cy, 0, 0, 1]")
    if k[0] <= 0 or k[4] <= 0:
        raise SchemaViolation(where, "focal lengths must be positive")
    if not (isinstance(im_size, list) and len(im_size) == 2 and all(type(v) is int and v > 0 for v in im_size)):
        raise SchemaViolation(where.rsplit(".", 1)[0] + ".im_size", "im_size must be [width, height], two positive integers")
    return CameraIntrinsics(fx=k[0], fy=k[4], cx=k[2], cy=k[5], width=im_size[0], height=im_size[1])


def _pose_from_lists(r_list, t_list, where) -> Pose:
    if not (isinstance(r_list, list) and len(r_list) == 9):
        raise SchemaViolation(f"{where}.cam_R_m2c", "must be a list of 9 numbers (row-major)")
    if not (isinstance(t_list, list) and len(t_list) == 3):
        raise SchemaViolation(f"{where}.cam_t_m2c", "must be a list of 3 numbers")
    for key, values in (("cam_R_m2c", r_list), ("cam_t_m2c", t_list)):
        if not all(map(_finite_number, values)):
            raise SchemaViolation(f"{where}.{key}", "must be finite numbers")
    try:
        return Pose(np.array(r_list, dtype=np.float64).reshape(3, 3), np.array(t_list, dtype=np.float64))
    except InvalidRotation as exc:
        raise InvalidRotation(f"{where}.cam_R_m2c: {exc}") from exc


def _symmetry_rows(rows: list, where: str) -> np.ndarray:
    """The (S, 3, 4) array of `rows`, each a list of 12 finite JSON numbers.

    One pass checks the row types and lengths and the set of element types,
    one np.array call converts, and np.isfinite checks the values. Only on a
    failure does the per-row loop run, to raise the first failing row's error
    at `where[j]`.
    """
    if set(map(type, rows)) <= {list} and set(map(len, rows)) <= {12}:
        kinds = set(map(type, itertools.chain.from_iterable(rows)))
        if kinds <= {int, float}:
            try:
                syms = np.array(rows, np.float64).reshape(-1, 3, 4)
            except OverflowError:  # an int beyond float64's range
                pass
            else:
                # an int that rounds to float64's max may lie beyond it
                if np.isfinite(syms).all() and not (int in kinds and (np.abs(syms) >= sys.float_info.max).any()):
                    return syms
    for j, flat in enumerate(rows):
        if not (isinstance(flat, list) and len(flat) == 12):
            raise SchemaViolation(f"{where}[{j}]", "must be 12 numbers (3x4 row-major)")
        if not all(map(_finite_number, flat)):
            raise SchemaViolation(f"{where}[{j}]", "must be finite numbers")
    return np.array(rows, dtype=np.float64).reshape(-1, 3, 4)


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
        # int() also takes "07", " 7" and "7_0": two spellings of one id would replace each other
        if str(obj_id) != key:
            raise SchemaViolation(where, f"object key must be written as {obj_id}")
        if not isinstance(entry, dict):
            raise SchemaViolation(where, "object entry must be a JSON object")
        diameter = entry.get("diameter")
        if diameter is not None:
            if not (_finite_number(diameter) and diameter > 0):
                raise SchemaViolation(f"{where}.diameter", "must be a positive finite number")
            diameter = float(diameter)
        symmetric = entry.get("symmetric", False)
        if type(symmetric) is not bool:
            raise SchemaViolation(f"{where}.symmetric", "must be true or false")
        rows = entry.get("symmetries", [])
        if not isinstance(rows, list):
            raise SchemaViolation(f"{where}.symmetries", "must be a list of 3x4 rows")
        objects[obj_id] = ObjectMeta(diameter, symmetric, _symmetry_rows(rows, f"{where}.symmetries"))

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
    """Map object ids to mesh paths: the id is the trailing digits of the file stem
    (obj_000003.ply -> 3). Stems without them are skipped; two ending in one id are an error."""
    out = {}
    for path in sorted(Path(directory).glob("*.ply")):
        m = re.search(r"(\d+)$", path.stem)
        if not m:
            continue
        obj_id = int(m.group(1))
        if obj_id in out:
            raise FastposeError(f"{out[obj_id]} and {path} both end in object id {obj_id}")
        out[obj_id] = path
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
