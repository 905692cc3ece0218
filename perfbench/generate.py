"""Seeded workload inputs.

Everything here depends only on numpy and the seed, never on fastpose, so
the bytes the program reads do not change when the program does. The same
seed gives byte-identical files; the seed moves poses, noise and weights
but never sizes or counts, so the work per operation is the same for every
seed.

Each eval generator returns a `Plan`: the counts and instance keys it
planted, which the output checks compare against the program's report.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# LINEMOD-style pinhole camera at BOP image size.
FX, FY, CX, CY = 572.4114, 573.57043, 325.2611, 242.04899
IM_W, IM_H = 640, 480

# net workloads: the pruned variant drops 16 groups from every head and
# regressor conv (head 256 -> 128 filters, regressor 128 -> 64).
PRUNE_D_HEAD = 16
PRUNE_D_PNP = 16
TRAIN_SAMPLES = 2
TRAIN_EPOCHS = 3
TRAIN_LR = 1e-3
INFER_SAMPLES = 8


def derive(seed: int, label: str) -> np.random.Generator:
    """Independent generator per (seed, label)."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


# ---------------------------------------------------------------- geometry

def rot_axis(axis: str, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    if axis == "x":
        return np.array([[1.0, 0, 0], [0, c, -s], [0, s, c]])
    if axis == "y":
        return np.array([[c, 0, s], [0, 1.0, 0], [-s, 0, c]])
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1.0]])


def random_rotation(gen: np.random.Generator) -> np.ndarray:
    q = gen.standard_normal(4)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])


def small_rotation(gen: np.random.Generator, max_deg: float) -> np.ndarray:
    axis = gen.standard_normal(3)
    axis /= np.linalg.norm(axis)
    angle = np.deg2rad(gen.uniform(0.5, max_deg))
    k = np.array([[0, -axis[2], axis[1]], [axis[2], 0, -axis[0]], [-axis[1], axis[0], 0]])
    return np.eye(3) + np.sin(angle) * k + (1 - np.cos(angle)) * (k @ k)


def uv_sphere(nlat: int, nlon: int, radius: float):
    verts = [[0.0, 0.0, radius]]
    for i in range(1, nlat):
        th = np.pi * i / nlat
        for j in range(nlon):
            ph = 2 * np.pi * j / nlon
            verts.append([radius * np.sin(th) * np.cos(ph), radius * np.sin(th) * np.sin(ph), radius * np.cos(th)])
    verts.append([0.0, 0.0, -radius])
    tris = [[0, 1 + j, 1 + (j + 1) % nlon] for j in range(nlon)]
    for i in range(nlat - 2):
        for j in range(nlon):
            a, b = 1 + i * nlon + j, 1 + i * nlon + (j + 1) % nlon
            tris += [[a, a + nlon, b], [b, a + nlon, b + nlon]]
    base, last = 1 + (nlat - 2) * nlon, len(verts) - 1
    tris += [[base + j, last, base + (j + 1) % nlon] for j in range(nlon)]
    return np.array(verts), np.array(tris)


def cylinder(nseg: int, nrings: int, radius: float, height: float):
    """Closed cylinder along z, centred at the origin, capped by fans."""
    verts = []
    for k in range(nrings):
        z = -height / 2 + height * k / (nrings - 1)
        for j in range(nseg):
            ph = 2 * np.pi * j / nseg
            verts.append([radius * np.cos(ph), radius * np.sin(ph), z])
    bottom, top = len(verts), len(verts) + 1
    verts += [[0.0, 0.0, -height / 2], [0.0, 0.0, height / 2]]
    tris = []
    for k in range(nrings - 1):
        for j in range(nseg):
            a, b = k * nseg + j, k * nseg + (j + 1) % nseg
            tris += [[a, b, a + nseg], [b, b + nseg, a + nseg]]
    last = (nrings - 1) * nseg
    for j in range(nseg):
        tris.append([bottom, (j + 1) % nseg, j])
        tris.append([top, last + j, last + (j + 1) % nseg])
    return np.array(verts), np.array(tris)


def torus(n_major: int, n_minor: int, major: float, minor: float):
    verts = []
    for i in range(n_major):
        u = 2 * np.pi * i / n_major
        for j in range(n_minor):
            v = 2 * np.pi * j / n_minor
            r = major + minor * np.cos(v)
            verts.append([r * np.cos(u), r * np.sin(u), minor * np.sin(v)])
    tris = []
    for i in range(n_major):
        for j in range(n_minor):
            a = i * n_minor + j
            b = i * n_minor + (j + 1) % n_minor
            c = ((i + 1) % n_major) * n_minor + j
            d = ((i + 1) % n_major) * n_minor + (j + 1) % n_minor
            tris += [[a, c, b], [b, c, d]]
    return np.array(verts), np.array(tris)


def box(sx: float, sy: float, sz: float):
    verts = np.array([[x, y, z] for x in (-sx, sx) for y in (-sy, sy) for z in (-sz, sz)]) / 2
    tris = np.array([
        [0, 1, 3], [0, 3, 2], [4, 6, 7], [4, 7, 5], [0, 4, 5], [0, 5, 1],
        [2, 3, 7], [2, 7, 6], [0, 2, 6], [0, 6, 4], [1, 5, 7], [1, 7, 3],
    ])
    return verts, tris


def axial_symmetries(order: int, flip: bool) -> list[np.ndarray]:
    """Non-identity 3x4 transforms: rotations about z by 2*pi*k/order,
    optionally composed with a half turn about x (the discretised
    continuous symmetries BOP lists for bodies of revolution)."""
    out = []
    for k in range(order):
        r = rot_axis("z", 2 * np.pi * k / order)
        for f in ((False, True) if flip else (False,)):
            m = rot_axis("x", np.pi) @ r if f else r
            if k == 0 and not f:
                continue
            out.append(np.hstack([m, np.zeros((3, 1))]))
    return out


# ---------------------------------------------------------------- writers

def ply_text(verts: np.ndarray, tris: np.ndarray) -> str:
    head = [
        "ply", "format ascii 1.0", f"element vertex {len(verts)}",
        "property float x", "property float y", "property float z",
        f"element face {len(tris)}", "property list uchar int vertex_indices", "end_header",
    ]
    body = [f"{x:.4f} {y:.4f} {z:.4f}" for x, y, z in np.round(verts, 4)]
    body += [f"3 {a} {b} {c}" for a, b, c in tris]
    return "\n".join(head + body) + "\n"


def _floats(values) -> list[float]:
    return [float(v) for v in np.asarray(values).reshape(-1)]


def _gt_instance(key, rot, t) -> dict:
    scene_id, im_id, obj_id = key
    return {
        "scene_id": scene_id, "im_id": im_id, "obj_id": obj_id,
        "cam_K": [FX, 0.0, CX, 0.0, FY, CY, 0.0, 0.0, 1.0], "im_size": [IM_W, IM_H],
        "cam_R_m2c": _floats(rot), "cam_t_m2c": _floats(t),
    }


def _csv_row(key, score: float, rot, t) -> str:
    r = " ".join(f"{v:.17g}" for v in _floats(rot))
    tt = " ".join(f"{v:.17g}" for v in _floats(t))
    return f"{key[0]},{key[1]},{key[2]},{score:.17g},{r},{tt},-1"


CSV_HEADER = "scene_id,im_id,obj_id,score,R,t,time"


@dataclass
class Plan:
    """What a generated dataset holds, for the output checks."""

    matched: int = 0
    missing: int = 0
    extra: int = 0
    duplicates: int = 0
    exact: list = field(default_factory=list)          # keys whose estimate equals GT
    symmetric_exact: list = field(default_factory=list)  # estimate = GT composed with a symmetry
    behind_camera: list = field(default_factory=list)  # keys with an estimate partly at z <= 0
    instances: int = 0


@dataclass
class ObjectSpec:
    obj_id: int
    verts: np.ndarray
    tris: np.ndarray
    symmetric: bool
    symmetries: list


def _write_models(directory: Path, objects: list[ObjectSpec]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for obj in objects:
        (directory / f"obj_{obj.obj_id:06d}.ply").write_text(ply_text(obj.verts, obj.tris), encoding="ascii")


def objects_json(objects: list[ObjectSpec]) -> str:
    """The ground truth's `objects` table, serialised once per dataset."""
    table = {}
    for obj in objects:
        entry = {}
        if obj.symmetric:
            entry["symmetric"] = True
        if obj.symmetries:
            entry["symmetries"] = [_floats(m) for m in obj.symmetries]
        table[str(obj.obj_id)] = entry
    return json.dumps(table, indent=1)


def _write_dataset(directory: Path, gt: list, objects_text: str, rows: list[str]) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    doc = '{"instances": ' + json.dumps(gt, indent=1) + ',\n"objects": ' + objects_text + "}\n"
    (directory / "gt.json").write_text(doc, encoding="utf-8")
    (directory / "estimates.csv").write_text("\n".join([CSV_HEADER] + rows) + "\n", encoding="utf-8")


def _perturbed(gen, rot, t, max_deg: float, max_mm: float):
    return small_rotation(gen, max_deg) @ rot, t + gen.uniform(-max_mm, max_mm, 3)


# ---------------------------------------------------------------- eval-bop

BOP_LAYOUT = (  # (im_id, obj_id) ground-truth instances of the one scene
    (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1),
)
BOP_MISSING = {(4, 1)}
BOP_EXACT = {(1, 1), (2, 2)}
BOP_SYMMETRIC_EXACT = {(3, 2)}
BOP_DUPLICATED = ((1, 1), (2, 2))   # a lower-score, wrong-pose duplicate each
BOP_EXTRA = ((9, 1), (9, 2))        # images with no ground truth


def bop_objects() -> list[ObjectSpec]:
    """UV sphere (4000 triangles), capped cylinder with 8-fold axial and
    flip symmetries (4032 triangles), and a 4896-vertex torus flagged
    `symmetric` (closest-point ADD-S, n x n pairwise arrays)."""
    sphere = uv_sphere(41, 50, 60.0)
    cyl = cylinder(96, 21, 40.0, 110.0)
    tor = torus(72, 68, 55.0, 18.0)
    return [
        ObjectSpec(1, *sphere, symmetric=False, symmetries=[]),
        ObjectSpec(2, *cyl, symmetric=False, symmetries=axial_symmetries(8, flip=True)),
        ObjectSpec(3, *tor, symmetric=True, symmetries=axial_symmetries(4, flip=False)),
    ]


def generate_eval_bop(seed: int, root: Path) -> Plan:
    """One BOP-sized scene: 640x480 images, 8 ground-truth instances of
    three meshes, one missing, two exact, one off by a symmetry, two
    duplicates and two extras."""
    gen = derive(seed, "eval-bop")
    objects = bop_objects()
    _write_models(root / "models", objects)
    syms = {o.obj_id: o.symmetries for o in objects}
    gt, rows, plan = [], [], Plan()
    for k, (im_id, obj_id) in enumerate(BOP_LAYOUT):
        key = (1, im_id, obj_id)
        rot = random_rotation(gen)
        t = np.array([(-1) ** k * 90.0 + gen.uniform(-20, 20), gen.uniform(-40, 40), 650.0 + gen.uniform(-30, 30)])
        gt.append(_gt_instance(key, rot, t))
        plan.instances += 1
        if (im_id, obj_id) in BOP_MISSING:
            plan.missing += 1
            continue
        plan.matched += 1
        if (im_id, obj_id) in BOP_EXACT:
            est_r, est_t = rot, t
            plan.exact.append(key)
        elif (im_id, obj_id) in BOP_SYMMETRIC_EXACT:
            sym = syms[obj_id][int(gen.integers(len(syms[obj_id])))]
            est_r, est_t = rot @ sym[:, :3], rot @ sym[:, 3] + t
            plan.symmetric_exact.append(key)
        else:
            est_r, est_t = _perturbed(gen, rot, t, 8.0, 6.0)
        rows.append(_csv_row(key, 0.9, est_r, est_t))
        if (im_id, obj_id) in BOP_DUPLICATED:
            wrong_r, wrong_t = _perturbed(gen, rot, t, 30.0, 25.0)
            rows.append(_csv_row(key, 0.4, wrong_r, wrong_t))
            plan.duplicates += 1
    for im_id, obj_id in BOP_EXTRA:
        rows.append(_csv_row((1, im_id, obj_id), 0.7, random_rotation(gen), np.array([0.0, 0.0, 700.0])))
        plan.extra += 1
    _write_dataset(root / "scene", gt, objects_json(objects), rows)
    return plan


# ---------------------------------------------------------------- eval-crowd

CROWD_SCENES = 24
CROWD_BEHIND_EVERY = 8      # scenes 8, 16, 24 carry one behind-camera estimate
CROWD_IMAGES = 1
CROWD_MISSING = {(1, 5)}    # (im_id, obj_id) per scene
CROWD_EXACT = {(1, 1), (1, 3)}
CROWD_DUPLICATED = ((1, 3),)
CROWD_EXTRA = ((7, 2),)
CROWD_BEHIND_KEY = (1, 4)


def crowd_objects() -> list[ObjectSpec]:
    """Five low-poly meshes (12-32 triangles). Bodies of revolution carry
    their continuous symmetry discretised into 315 steps about the axis
    (BOP's default step of 0.01 rad), with and without a half turn."""
    steps = 315
    return [
        ObjectSpec(1, *box(40.0, 30.0, 20.0), symmetric=False,
                   symmetries=[np.hstack([rot_axis(a, np.pi), np.zeros((3, 1))]) for a in "xyz"]),
        ObjectSpec(2, *cylinder(6, 2, 15.0, 50.0), symmetric=False, symmetries=axial_symmetries(steps, flip=True)),
        ObjectSpec(3, *cylinder(6, 2, 20.0, 30.0), symmetric=False, symmetries=axial_symmetries(6, flip=True)),
        ObjectSpec(4, *cylinder(8, 2, 20.0, 40.0), symmetric=False, symmetries=axial_symmetries(steps, flip=True)),
        ObjectSpec(5, *cylinder(8, 2, 25.0, 12.0), symmetric=True, symmetries=axial_symmetries(steps, flip=False)),
    ]


def crowd_scene_ids() -> list[int]:
    return list(range(1, CROWD_SCENES + 1))


def crowd_is_behind(scene_id: int) -> bool:
    return scene_id % CROWD_BEHIND_EVERY == 0


def generate_eval_crowd(seed: int, root: Path) -> dict[int, Plan]:
    """24 scenes of one image with 5 objects, small and far (1.5-2.5 m). Every
    scene: one miss, two exact, one duplicate, one extra. Every 8th scene
    also holds one estimate lying partly behind the camera."""
    gen = derive(seed, "eval-crowd")
    objects = crowd_objects()
    _write_models(root / "models", objects)
    objects_text = objects_json(objects)
    plans = {}
    for scene_id in crowd_scene_ids():
        gt, rows, plan = [], [], Plan()
        for im_id in range(1, CROWD_IMAGES + 1):
            for obj in objects:
                key = (scene_id, im_id, obj.obj_id)
                rot = random_rotation(gen)
                t = np.array([gen.uniform(-400, 400), gen.uniform(-300, 300), gen.uniform(1500, 2500)])
                gt.append(_gt_instance(key, rot, t))
                plan.instances += 1
                if (im_id, obj.obj_id) in CROWD_MISSING:
                    plan.missing += 1
                    continue
                plan.matched += 1
                if (im_id, obj.obj_id) in CROWD_EXACT:
                    est_r, est_t = rot, t
                    plan.exact.append(key)
                elif crowd_is_behind(scene_id) and (im_id, obj.obj_id) == CROWD_BEHIND_KEY:
                    est_r, est_t = rot, np.array([0.0, 0.0, 5.0])
                    plan.behind_camera.append(key)
                else:
                    est_r, est_t = _perturbed(gen, rot, t, 10.0, 15.0)
                rows.append(_csv_row(key, 0.8, est_r, est_t))
                if (im_id, obj.obj_id) in CROWD_DUPLICATED:
                    wrong_r, wrong_t = _perturbed(gen, rot, t, 40.0, 60.0)
                    rows.append(_csv_row(key, 0.3, wrong_r, wrong_t))
                    plan.duplicates += 1
        for im_id, obj_id in CROWD_EXTRA:
            rows.append(_csv_row((scene_id, im_id, obj_id), 0.5, random_rotation(gen), np.array([0.0, 0.0, 2000.0])))
            plan.extra += 1
        _write_dataset(root / f"scene_{scene_id:03d}", gt, objects_text, rows)
        plans[scene_id] = plan
    return plans


# ---------------------------------------------------------------- net

def net_seed(seed: int) -> int:
    """Weight-init seed for the toy network built from the workload seed."""
    return int(derive(seed, "net-weights").integers(0, 2**31 - 1))


def net_inputs(seed: int, count: int) -> list[np.ndarray]:
    gen = derive(seed, "net-inputs")
    return [gen.standard_normal((3, 64, 64)).astype(np.float32) for _ in range(count)]


def tree_digest(root: Path) -> str:
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()
