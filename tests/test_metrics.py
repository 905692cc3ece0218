"""Pose-error metrics, recall grids, and AR aggregation."""

import math

import numpy as np
import pytest

import oracles
from conftest import peak_traced_bytes, random_mesh, random_model, random_pose, random_symmetries, small_camera
from fastpose import geom, metrics
from fastpose.datio import EstimateRecord, GroundTruthRecord
from fastpose.errors import EmptyInput, EmptyModel, InvalidConfig, LengthMismatch, MissingDiameter, NonPositiveDepth
from fastpose.geom import CameraIntrinsics, Pose, make_model
from fastpose.metrics import (
    ARReport,
    ErrorSample,
    ThresholdGrid,
    average_recall,
    e_add,
    e_add_s,
    e_mspd,
    e_mssd,
    e_vsd,
    evaluate,
    recall_at,
    report_to_csv,
    report_to_dict,
)

ROT_Z90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
T = np.array([0.0, 0.0, 500.0])


def cube_model(side=1.0, symmetries=(), symmetric_flag=False):
    h = side / 2.0
    verts = np.array([[sx * h, sy * h, sz * h]
                      for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    return make_model(verts, symmetries=symmetries, symmetric_flag=symmetric_flag)


def box_mesh(side):
    """An axis-aligned cube of 12 outward-facing triangles."""
    return make_model(cube_model(side).vertices, [
        [0, 1, 3], [0, 3, 2], [4, 6, 7], [4, 7, 5], [0, 4, 5], [0, 5, 1],
        [2, 3, 7], [2, 7, 6], [0, 2, 6], [0, 6, 4], [1, 5, 7], [1, 7, 3],
    ])


class TestAdd:
    def test_identical_poses(self):
        m = cube_model()
        p = Pose(ROT_Z90, T)
        assert e_add(m, p, p) == 0.0

    def test_translation_offset(self):
        m = cube_model()
        a = Pose(np.eye(3), T)
        b = Pose(np.eye(3), T + np.array([3.0, 4.0, 0.0]))
        assert abs(e_add(m, a, b) - 5.0) < 1e-12

    def test_unit_cube_quarter_turn(self):
        m = cube_model(1.0)
        est = Pose(ROT_Z90, T)
        gt = Pose(np.eye(3), T)
        assert abs(e_add(m, est, gt) - 1.0) < 1e-12

    def test_empty_model(self):
        from fastpose.geom import ObjectModel
        empty = ObjectModel(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64), diameter=0.0)
        with pytest.raises(EmptyModel):
            e_add(empty, Pose.identity(), Pose.identity())


class TestAddS:
    def test_identical_poses(self):
        m = cube_model()
        p = Pose(np.eye(3), T)
        assert e_add_s(m, p, p) == 0.0

    def test_own_symmetry_scores_zero(self):
        m = cube_model()
        est = Pose(ROT_Z90, T)
        gt = Pose(np.eye(3), T)
        assert e_add_s(m, est, gt) == 0.0
        assert e_add(m, est, gt) > 0.5

    def test_never_exceeds_add(self):
        gen = np.random.default_rng(47)
        for _ in range(50):
            m = random_model(gen)
            a, b = random_pose(gen), random_pose(gen)
            assert e_add_s(m, a, b) <= e_add(m, a, b)



def small_turn(gen, degrees: float) -> np.ndarray:
    """Rotation by `degrees` about a random axis (Rodrigues)."""
    axis = gen.standard_normal(3)
    axis /= np.linalg.norm(axis)
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]], [-axis[1], axis[0], 0.0]])
    a = np.deg2rad(degrees)
    return np.eye(3) + np.sin(a) * k + (1.0 - np.cos(a)) * (k @ k)


def torus_vertices(n_major: int, n_minor: int, major=55.0, minor=18.0) -> np.ndarray:
    u, v = np.meshgrid(np.arange(n_major) * (2 * np.pi / n_major), np.arange(n_minor) * (2 * np.pi / n_minor))
    ring = major + minor * np.cos(v)
    return np.stack([ring * np.cos(u), ring * np.sin(u), minor * np.sin(v)], axis=-1).reshape(-1, 3)


def full_block_scan(m, pose_est, pose_gt) -> float:
    est, gt = pose_est.transform(m.vertices), pose_gt.transform(m.vertices)
    return float(np.sqrt(np.concatenate([d2.min(axis=1) for d2 in geom._sq_distance_blocks(est, gt)])).mean())


def scanned_add_s(monkeypatch, m, pose_est, pose_gt) -> tuple[float, int]:
    """e_add_s and the number of squared distances it computed."""
    sizes = []

    def counting(a, b):
        for d2 in geom._sq_distance_blocks(a, b):
            sizes.append(d2.size)
            yield d2

    with monkeypatch.context() as mp:
        mp.setattr(metrics, "_sq_distance_blocks", counting)
        return e_add_s(m, pose_est, pose_gt), sum(sizes)


ADD_S_SHAPES = {
    "random-150": lambda gen: gen.uniform(-30.0, 30.0, size=(150, 3)),
    "random-181": lambda gen: gen.uniform(-30.0, 30.0, size=(181, 3)),
    "random-182": lambda gen: gen.uniform(-30.0, 30.0, size=(182, 3)),
    "random-300": lambda gen: gen.uniform(-30.0, 30.0, size=(300, 3)),
    "all-equal": lambda gen: np.tile(gen.uniform(-5.0, 5.0, size=3), (240, 1)),
    "collinear": lambda gen: np.outer(gen.uniform(-40.0, 40.0, size=240), [0.3, -0.5, 0.8]),
    "planar": lambda gen: np.c_[gen.uniform(-40.0, 40.0, size=(240, 2)), np.zeros(240)],
    "1mm-at-1e6mm": lambda gen: gen.uniform(-0.5, 0.5, size=(240, 3)) + 1e6,
    "torus": lambda gen: torus_vertices(18, 14),
}


class TestAddSCandidateScan:
    """e_add_s scans only the ground-truth vertices near each cell of estimated
    vertices, and its values stay those of the full scan, bit for bit."""

    @pytest.mark.parametrize("pose_case", ["identical", "small-error", "offset-half-diameter", "offset-10-diameters",
                                           "unrelated"])
    @pytest.mark.parametrize("shape", list(ADD_S_SHAPES))
    def test_equals_the_oracle_and_the_full_scan(self, monkeypatch, shape, pose_case):
        gen = np.random.default_rng(sorted(ADD_S_SHAPES).index(shape))
        m = make_model(ADD_S_SHAPES[shape](gen))
        gt = random_pose(gen, z_range=(600.0, 900.0))
        est = {
            "identical": gt,
            "small-error": Pose(small_turn(gen, 3.0) @ gt.rotation, gt.translation + gen.uniform(-2.0, 2.0, 3)),
            "offset-half-diameter": Pose(gt.rotation, gt.translation + [0.6 * max(m.diameter, 1.0), 0.0, 0.0]),
            "offset-10-diameters": Pose(gt.rotation, gt.translation + [10.0 * max(m.diameter, 1.0), 0.0, 0.0]),
            "unrelated": random_pose(gen, z_range=(600.0, 900.0)),
        }[pose_case]
        value, scanned = scanned_add_s(monkeypatch, m, est, gt)
        assert value == full_block_scan(m, est, gt) == oracles.add_s_reference(m, est, gt)
        n = len(m.vertices)
        assert scanned <= 2 * n * n
        if n <= 181:
            assert scanned == n * n  # one block: the plain scan

    def test_small_pose_error_scans_under_an_eighth(self, monkeypatch):
        gen = np.random.default_rng(73)
        m = make_model(torus_vertices(72, 68))
        n = len(m.vertices)
        for _ in range(3):
            gt = random_pose(gen, z_range=(600.0, 900.0))
            est = Pose(small_turn(gen, 8.0) @ gt.rotation, gt.translation + gen.uniform(-6.0, 6.0, 3))
            value, scanned = scanned_add_s(monkeypatch, m, est, gt)
            assert value == full_block_scan(m, est, gt)
            assert scanned < n * n / 8

    @pytest.mark.parametrize("offset", [0.6, 10.0], ids=["half-overlap", "no-overlap"])
    def test_far_estimates_scan_at_most_twice_the_full_scan(self, monkeypatch, offset):
        gen = np.random.default_rng(79)
        m = make_model(torus_vertices(40, 30))
        gt = random_pose(gen, z_range=(600.0, 900.0))
        est = Pose(gt.rotation, gt.translation + [0.0, offset * m.diameter, 0.0])
        value, scanned = scanned_add_s(monkeypatch, m, est, gt)
        assert value == full_block_scan(m, est, gt)
        assert scanned <= 2 * len(m.vertices) ** 2

    @pytest.mark.parametrize("n", [18, 181])
    def test_small_mesh_computes_none_of_the_grouping(self, monkeypatch, n):
        monkeypatch.setattr(metrics, "_GROUP_VERTICES", None)  # the grouping's first use of it raises TypeError
        gen = np.random.default_rng(n)
        m = make_model(gen.uniform(-30.0, 30.0, (n, 3)))
        gt = random_pose(gen, z_range=(600.0, 900.0))
        est = Pose(small_turn(gen, 8.0) @ gt.rotation, gt.translation + gen.uniform(-6.0, 6.0, 3))
        assert e_add_s(m, est, gt) == oracles.add_s_reference(m, est, gt)


class TestMssd:
    def test_identical_poses(self):
        m = cube_model()
        p = Pose(np.eye(3), T)
        assert e_mssd(m, p, p) == 0.0

    def test_listed_symmetry_absorbed(self):
        sym = Pose(ROT_Z90, np.zeros(3))
        m = cube_model(symmetries=[np.c_[ROT_Z90, np.zeros(3)]])
        gt = Pose(np.eye(3), T)
        assert e_mssd(m, gt.compose(sym), gt) < 1e-6

    def test_unit_cube_quarter_turn_identity_only(self):
        m = cube_model(1.0)
        assert abs(e_mssd(m, Pose(ROT_Z90, T), Pose(np.eye(3), T)) - 1.0) < 1e-12

    def test_symmetry_product_outside_rotation_tolerance_is_scored(self):
        # each rotation passes the 1e-6 check, their product misses it by rounding
        m = cube_model(20.0, symmetries=[np.c_[np.diag([-(1 + 4.9e-7), -1.0, 1.0]), np.zeros(3)]])
        gt = Pose(np.diag([1 + 4.9e-7, 1.0, 1.0]), T)
        assert e_mssd(m, gt, gt) == 0.0
        assert e_mspd(m, gt, gt, small_camera()) == 0.0


class TestMspd:
    def test_identical_poses(self):
        m = cube_model()
        p = Pose(np.eye(3), T)
        assert e_mspd(m, p, p, small_camera()) == 0.0

    def test_single_vertex_pixel_offset(self):
        m = make_model(np.array([[0.0, 0.0, 0.0]]))
        cam = CameraIntrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0, width=64, height=64)
        est = Pose(np.eye(3), np.array([10.0, 0.0, 1000.0]))
        gt = Pose(np.eye(3), np.array([0.0, 0.0, 1000.0]))
        assert abs(e_mspd(m, est, gt, cam) - 1.0) < 1e-12

    def test_listed_symmetry_absorbed(self):
        sym = Pose(ROT_Z90, np.zeros(3))
        m = cube_model(20.0, symmetries=[np.c_[ROT_Z90, np.zeros(3)]])
        gt = Pose(np.eye(3), T)
        assert e_mspd(m, gt.compose(sym), gt, small_camera()) < 1e-6


class TestMetricOracleAgreement:
    def test_exact_match_on_random_instances(self):
        gen = np.random.default_rng(53)
        cam = small_camera()
        for _ in range(25):
            m = random_model(gen)
            a = random_pose(gen, z_range=(600.0, 900.0))
            b = random_pose(gen, z_range=(600.0, 900.0))
            assert e_add(m, a, b) == oracles.add_reference(m, a, b)
            assert e_add_s(m, a, b) == oracles.add_s_reference(m, a, b)
            assert e_mssd(m, a, b) == oracles.mssd_reference(m, a, b)
            assert e_mspd(m, a, b, cam) == oracles.mspd_reference(m, a, b, cam)

    def test_add_s_matches_reference_across_row_blocks(self):
        gen = np.random.default_rng(59)
        for n in (129, 300):
            m = make_model(gen.uniform(-30.0, 30.0, size=(n, 3)))
            a = random_pose(gen, z_range=(600.0, 900.0))
            b = random_pose(gen, z_range=(600.0, 900.0))
            assert e_add_s(m, a, b) == oracles.add_s_reference(m, a, b)

    @pytest.mark.parametrize("chunk", [1, 3 * 7, 5 * 7 + 3])
    def test_symmetry_chunks_match_one_pass_and_oracle(self, monkeypatch, chunk):
        """MSSD, MSPD and ADD are the oracles' floats bit for bit, whatever the
        symmetry chunking, on meshes of 1 to 60 vertices."""
        gen = np.random.default_rng(67)
        cam = small_camera()
        m = make_model(gen.uniform(-30.0, 30.0, size=(7, 3)), symmetries=random_symmetries(gen, 9))
        a = random_pose(gen, z_range=(600.0, 900.0))
        b = random_pose(gen, z_range=(600.0, 900.0))
        one_pass = e_mssd(m, a, b), e_mspd(m, a, b, cam)
        monkeypatch.setattr(metrics, "_CHUNK_VERTICES", chunk)  # 10 symmetries in chunks of 1, 3 or 5
        assert (e_mssd(m, a, b), e_mspd(m, a, b, cam)) == one_pass
        instances = [(m, a, b)] + [
            (make_model(gen.uniform(-40.0, 40.0, size=(int(gen.integers(1, 61)), 3)),
                        symmetries=random_symmetries(gen, int(gen.integers(0, 25)))),
             random_pose(gen, z_range=(600.0, 900.0)), random_pose(gen, z_range=(600.0, 900.0)))
            for _ in range(30)]
        for m, a, b in instances:
            for got, want in [(e_mssd(m, a, b), oracles.mssd_reference(m, a, b)),
                              (e_mspd(m, a, b, cam), oracles.mspd_reference(m, a, b, cam)),
                              (e_add(m, a, b), oracles.add_reference(m, a, b))]:
                assert float(got).hex() == float(want).hex()

    def test_symmetry_scoring_memory_is_bounded_on_a_40k_vertex_mesh(self, monkeypatch):
        monkeypatch.setattr(geom, "_pairwise_diameter", lambda v: 0.0)  # O(n^2), and not under test
        gen = np.random.default_rng(71)
        m = make_model(gen.uniform(-50.0, 50.0, size=(40_000, 3)), symmetries=random_symmetries(gen, 63))
        a = random_pose(gen, z_range=(600.0, 900.0))
        b = random_pose(gen, z_range=(600.0, 900.0))
        assert len(m.symmetries) == 64
        assert peak_traced_bytes(lambda: e_mssd(m, a, b)) < 16 * 2**20
        assert peak_traced_bytes(lambda: e_mspd(m, a, b, small_camera())) < 16 * 2**20

    def test_add_s_memory_grows_linearly_not_quadratically(self):
        gen = np.random.default_rng(61)
        m = make_model(gen.uniform(-50.0, 50.0, size=(3000, 3)))
        a, b = random_pose(gen), random_pose(gen)
        assert peak_traced_bytes(lambda: e_add_s(m, a, b)) < 64 * 2**20


class TestVsd:
    def big_quad(self):
        # covers every pixel of the small camera from z=500 out to z=1500
        v = np.array([[-900.0, -900.0, 0.0], [900.0, -900.0, 0.0],
                      [900.0, 900.0, 0.0], [-900.0, 900.0, 0.0]])
        return make_model(v, [[0, 1, 2], [0, 2, 3]])

    def test_identical_poses_zero(self):
        m = self.big_quad()
        p = Pose(np.eye(3), np.array([0.0, 0.0, 1000.0]))
        assert e_vsd(m, p, p, small_camera(), [5.0, 10.0]) == [0.0, 0.0]

    def test_flat_offset_thresholds(self):
        m = self.big_quad()
        est = Pose(np.eye(3), np.array([0.0, 0.0, 1000.0]))
        gt = Pose(np.eye(3), np.array([0.0, 0.0, 1005.0]))
        errs = e_vsd(m, est, gt, small_camera(), [3.0, 10.0])
        assert errs[0] == 1.0  # |5| < 3 fails everywhere
        assert errs[1] == 0.0  # |5| < 10 holds everywhere

    def test_disjoint_footprints_one(self):
        m = make_model(np.array([[-15.0, -15.0, 0.0], [15.0, -15.0, 0.0], [0.0, 15.0, 0.0]]),
                       [[0, 1, 2]])
        est = Pose(np.eye(3), np.array([-60.0, 0.0, 500.0]))
        gt = Pose(np.eye(3), np.array([60.0, 0.0, 500.0]))
        errs = e_vsd(m, est, gt, small_camera(), [1.0, 50.0])
        assert errs == [1.0, 1.0]

    def test_empty_union_zero(self):
        m = make_model(np.array([[-15.0, -15.0, 0.0], [15.0, -15.0, 0.0], [0.0, 15.0, 0.0]]),
                       [[0, 1, 2]])
        behind = Pose(np.eye(3), np.array([0.0, 0.0, -500.0]))
        assert e_vsd(m, behind, behind, small_camera(), [5.0]) == [0.0]

    def test_tau_validation(self):
        m = self.big_quad()
        p = Pose(np.eye(3), np.array([0.0, 0.0, 1000.0]))
        with pytest.raises(ValueError):
            e_vsd(m, p, p, small_camera(), [])
        with pytest.raises(ValueError):
            e_vsd(m, p, p, small_camera(), [5.0, -1.0])

    def test_matches_per_pixel_reference(self):
        gen = np.random.default_rng(59)
        cam = small_camera()
        from fastpose.raster import render_distance_map
        for _ in range(10):
            m = random_model(gen, span=25.0)
            tris = [[i, (i + 1) % len(m.vertices), (i + 2) % len(m.vertices)]
                    for i in range(min(4, len(m.vertices)))] if len(m.vertices) >= 3 else []
            if not tris:
                continue
            m = make_model(m.vertices, tris)
            a = random_pose(gen, z_range=(400.0, 700.0), xy_span=10.0)
            b = random_pose(gen, z_range=(400.0, 700.0), xy_span=10.0)
            taus = [2.0, 10.0, 40.0]
            got = e_vsd(m, a, b, cam, taus)
            da = render_distance_map(m, a, cam)
            db = render_distance_map(m, b, cam)
            want = oracles.vsd_reference(da.depth, da.visible, db.depth, db.visible, taus)
            assert np.abs(np.array(got) - np.array(want)).max() < 1e-12

    @staticmethod
    def scene_poses(gen, kind):
        """Two poses whose footprints lie inside the small camera's frame,
        are cut by its border, are clipped at the near plane, are empty
        (one or both behind the camera) or lie in disjoint boxes."""
        if kind == "inside":
            return [random_pose(gen, z_range=(400.0, 900.0), xy_span=10.0) for _ in range(2)]
        if kind == "border":  # near one edge or corner of the frame, 142 x 96 mm from its centre at 400 mm
            edge = np.array([[142.0, 0.0], [-142.0, 0.0], [0.0, 96.0], [0.0, -96.0], [142.0, 96.0]])[gen.integers(0, 5)]
            poses = [random_pose(gen, z_range=(390.0, 410.0), xy_span=8.0) for _ in range(2)]
            return [Pose(p.rotation, p.translation + [*edge, 0.0]) for p in poses]
        if kind == "near_clip":
            return [random_pose(gen, z_range=(-10.0, 30.0), xy_span=10.0) for _ in range(2)]
        if kind == "empty":  # the first, the second or both behind the camera
            front = random_pose(gen, z_range=(400.0, 900.0), xy_span=10.0)
            behind = Pose(front.rotation, np.array([0.0, 0.0, -500.0]))
            return [(behind, front), (front, behind), (behind, behind)][int(gen.integers(0, 3))]
        a, b = (random_pose(gen, z_range=(600.0, 900.0), xy_span=5.0) for _ in range(2))
        return [Pose(a.rotation, a.translation - [110.0, 0.0, 0.0]), Pose(b.rotation, b.translation + [110.0, 0.0, 0.0])]

    @pytest.mark.parametrize("kind", ["inside", "border", "near_clip", "empty", "disjoint"])
    def test_box_local_counts_equal_full_frames(self, kind):
        gen = np.random.default_rng(["inside", "border", "near_clip", "empty", "disjoint"].index(kind) + 71)
        cam = small_camera()
        taus = [0.5, 2.0, 10.0, 40.0, 1e9]
        for case in range(30):
            m = random_mesh(gen, max_vertices=12, max_triangles=16, span=30.0)
            a, b = self.scene_poses(gen, kind)
            assert e_vsd(m, a, b, cam, taus) == oracles.vsd_full_frame(m, a, b, cam, taus), case

    def test_small_footprint_needs_no_full_frame(self):
        # a 12-triangle, 40 mm box at 2 m covers about 10 x 10 pixels of a
        # 640x480 frame, whose float64 depth alone takes 2.4 MB
        cam = CameraIntrinsics(fx=500.0, fy=500.0, cx=319.5, cy=239.5, width=640, height=480)
        m = box_mesh(40.0)
        est = Pose(ROT_Z90, np.array([3.0, -2.0, 2000.0]))
        gt = Pose(np.eye(3), np.array([0.0, 0.0, 2000.0]))
        taus = ThresholdGrid.bop_default().vsd_taus
        out = []
        peak = peak_traced_bytes(lambda: out.append(e_vsd(m, est, gt, cam, [40.0 * t for t in taus])))
        assert out[0] == oracles.vsd_full_frame(m, est, gt, cam, [40.0 * t for t in taus])
        assert peak < 8 * 640 * 480 / 8

    def test_tau_monotone(self):
        gen = np.random.default_rng(61)
        cam = small_camera()
        m = cube_model(40.0)
        for _ in range(10):
            a = random_pose(gen, z_range=(350.0, 600.0), xy_span=15.0)
            b = random_pose(gen, z_range=(350.0, 600.0), xy_span=15.0)
            errs = e_vsd(m, a, b, cam, [1.0, 2.0, 5.0, 10.0, 25.0, 60.0])
            assert all(x >= y for x, y in zip(errs, errs[1:]))


class TestRecall:
    def test_direct_count(self):
        assert abs(recall_at([0.1, 0.2, 0.9], 0.5) - 2.0 / 3.0) < 1e-15

    def test_all_zero_errors(self):
        assert recall_at([0.0, 0.0], 1e-9) == 1.0

    def test_all_infinite(self):
        assert recall_at([math.inf, math.inf], 1e9) == 0.0

    def test_strictly_less_than(self):
        assert recall_at([0.5], 0.5) == 0.0

    def test_monotone_in_threshold(self):
        gen = np.random.default_rng(67)
        errs = gen.uniform(0, 10, 30)
        recalls = [recall_at(errs, t) for t in np.linspace(0.1, 12, 40)]
        assert all(a <= b for a, b in zip(recalls, recalls[1:]))

    def test_validation(self):
        with pytest.raises(EmptyInput):
            recall_at([], 0.5)
        with pytest.raises(ValueError):
            recall_at([0.1], 0.0)


class TestThresholdGrid:
    def test_default_grids(self):
        g = ThresholdGrid.bop_default()
        assert g.vsd_taus == tuple(k / 20.0 for k in range(1, 11))
        assert g.vsd_correctness == g.vsd_taus
        assert g.mssd_correctness == g.vsd_taus
        assert g.mspd_correctness == tuple(5.0 * k for k in range(1, 11))
        assert g.add_correctness == (0.02, 0.05, 0.10)
        assert len(g.vsd_taus) * len(g.vsd_correctness) == 100
        assert g.r == 1.0
        assert ThresholdGrid.bop_default(image_width=320).r == 0.5

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            ThresholdGrid((), (0.1,), (0.1,), (5.0,), (0.02,))
        with pytest.raises(ValueError):
            ThresholdGrid((0.2, 0.1), (0.1,), (0.1,), (5.0,), (0.02,))
        with pytest.raises(ValueError):
            ThresholdGrid((-0.1, 0.2), (0.1,), (0.1,), (5.0,), (0.02,))


class TestErrorSample:
    def test_vsd_needs_vector(self):
        with pytest.raises(ValueError):
            ErrorSample(0, 0, 1, "vsd")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ErrorSample(0, 0, 1, "iou", error_value=0.1)

    def test_negative_error(self):
        with pytest.raises(ValueError):
            ErrorSample(0, 0, 1, "add", error_value=-0.1)


def perfect_samples(obj_id, n, grid):
    zeros = (0.0,) * len(grid.vsd_taus)
    out = []
    for i in range(n):
        out += [
            ErrorSample(1, i, obj_id, "vsd", vsd_errors=zeros),
            ErrorSample(1, i, obj_id, "mssd", error_value=0.0),
            ErrorSample(1, i, obj_id, "mspd", error_value=0.0),
            ErrorSample(1, i, obj_id, "add", error_value=0.0),
        ]
    return out


class TestAverageRecall:
    def test_all_exact_gives_one(self):
        grid = ThresholdGrid.bop_default()
        rep = average_recall(perfect_samples(3, 4, grid), grid, {3: 80.0})
        assert rep.ar_vsd == rep.ar_mssd == rep.ar_mspd == rep.ar_bop == 1.0
        assert rep.ar_add == 1.0
        assert rep.n_instances == 4

    def test_vsd_recall_is_10_by_10(self):
        grid = ThresholdGrid.bop_default()
        rep = average_recall(perfect_samples(1, 2, grid), grid, {1: 50.0})
        table = rep.per_object[0].vsd_recall
        assert len(table) == 10 and all(len(row) == 10 for row in table)

    def test_mspd_27r_scores_half(self):
        for width in (640, 320):
            grid = ThresholdGrid.bop_default(image_width=width)
            r = width / 640.0
            samples = [
                ErrorSample(1, 0, 7, "vsd", vsd_errors=(0.0,) * 10),
                ErrorSample(1, 0, 7, "mssd", error_value=0.0),
                ErrorSample(1, 0, 7, "mspd", error_value=27.0 * r),
                ErrorSample(1, 0, 7, "add", error_value=0.0),
            ]
            rep = average_recall(samples, grid, {7: 100.0})
            assert abs(rep.ar_mspd - 0.5) < 1e-12

    def test_ar_bop_is_exact_mean(self):
        grid = ThresholdGrid.bop_default()
        gen = np.random.default_rng(71)
        samples = []
        for i in range(6):
            samples += [
                ErrorSample(1, i, 2, "vsd", vsd_errors=tuple(gen.uniform(0, 1, 10))),
                ErrorSample(1, i, 2, "mssd", error_value=gen.uniform(0, 60)),
                ErrorSample(1, i, 2, "mspd", error_value=gen.uniform(0, 60)),
                ErrorSample(1, i, 2, "add", error_value=gen.uniform(0, 60)),
            ]
        rep = average_recall(samples, grid, {2: 75.0})
        assert rep.ar_bop == (rep.ar_vsd + rep.ar_mssd + rep.ar_mspd) / 3.0

    def test_objects_pool_separately_then_average(self):
        grid = ThresholdGrid.bop_default()
        samples = perfect_samples(1, 2, grid)
        for i in range(2):  # object 2 misses everything
            samples += [
                ErrorSample(1, i, 2, "vsd", vsd_errors=(math.inf,) * 10),
                ErrorSample(1, i, 2, "mssd", error_value=math.inf),
                ErrorSample(1, i, 2, "mspd", error_value=math.inf),
                ErrorSample(1, i, 2, "add", error_value=math.inf),
            ]
        rep = average_recall(samples, grid, {1: 60.0, 2: 60.0})
        assert rep.ar_bop == 0.5
        assert rep.per_object[0].ar_vsd == 1.0
        assert rep.per_object[1].ar_vsd == 0.0

    def test_hand_computed_mixed_fixture(self):
        # one object, two instances; mssd errors at 0.12d and inf:
        # thresholds 0.05d..0.50d -> first instance passes 8 of 10, second 0
        grid = ThresholdGrid.bop_default()
        d = 40.0
        samples = [
            ErrorSample(1, 0, 5, "vsd", vsd_errors=(0.0,) * 10),
            ErrorSample(1, 0, 5, "mssd", error_value=0.12 * d),
            ErrorSample(1, 0, 5, "mspd", error_value=0.0),
            ErrorSample(1, 0, 5, "add", error_value=0.0),
            ErrorSample(1, 1, 5, "vsd", vsd_errors=(math.inf,) * 10),
            ErrorSample(1, 1, 5, "mssd", error_value=math.inf),
            ErrorSample(1, 1, 5, "mspd", error_value=math.inf),
            ErrorSample(1, 1, 5, "add", error_value=math.inf),
        ]
        rep = average_recall(samples, grid, {5: d})
        assert abs(rep.ar_mssd - 0.4) < 1e-12  # mean of (8/10 halved)
        assert abs(rep.ar_vsd - 0.5) < 1e-12
        assert abs(rep.ar_mspd - 0.5) < 1e-12

    def test_missing_diameter(self):
        grid = ThresholdGrid.bop_default()
        with pytest.raises(MissingDiameter):
            average_recall(perfect_samples(9, 1, grid), grid, {})

    def test_empty_samples(self):
        with pytest.raises(EmptyInput):
            average_recall([], ThresholdGrid.bop_default(), {})

    def test_wrong_vsd_vector_length(self):
        grid = ThresholdGrid.bop_default()
        samples = perfect_samples(1, 1, grid)
        samples[0] = ErrorSample(1, 0, 1, "vsd", vsd_errors=(0.0, 0.0))
        with pytest.raises(LengthMismatch):
            average_recall(samples, grid, {1: 10.0})


def tiny_scene(n_images=3, obj_ids=(1, 2)):
    """Ground truth plus exact estimates for a small mesh in every image."""
    gen = np.random.default_rng(73)
    cam = small_camera()
    models, gt, est = {}, [], []
    for obj_id in obj_ids:
        verts = gen.uniform(-20, 20, (6, 3))
        models[obj_id] = make_model(verts, [[0, 1, 2], [3, 4, 5]],
                                    symmetric_flag=(obj_id % 2 == 0))
        for im in range(n_images):
            pose = random_pose(gen, z_range=(400.0, 800.0), xy_span=10.0)
            gt.append(GroundTruthRecord(1, im, obj_id, pose, cam))
            est.append(EstimateRecord(1, im, obj_id, 0.9, pose))
    return models, gt, est


class TestEvaluate:
    def test_perfect_estimates(self):
        models, gt, est = tiny_scene()
        res = evaluate(est, gt, models)
        assert res.report.ar_bop == 1.0
        assert res.n_matched == len(gt)
        assert res.n_missing == 0 and res.n_extra == 0

    def test_missing_estimate_counts_against_recall(self):
        models, gt, est = tiny_scene(n_images=2, obj_ids=(1,))
        res = evaluate(est[:1], gt, models)
        assert res.n_missing == 1
        assert abs(res.report.ar_bop - 0.5) < 1e-12

    def test_duplicates_keep_highest_score(self):
        models, gt, est = tiny_scene(n_images=1, obj_ids=(1,))
        bogus = EstimateRecord(1, 0, 1, 0.2,
                               Pose(np.eye(3), np.array([500.0, 0.0, 900.0])))
        res = evaluate([bogus, est[0]], gt, models)
        assert res.report.ar_bop == 1.0
        res = evaluate([est[0], bogus], gt, models)
        assert res.report.ar_bop == 1.0

    def test_score_tie_keeps_first(self):
        models, gt, est = tiny_scene(n_images=1, obj_ids=(1,))
        bogus = EstimateRecord(1, 0, 1, 0.9,
                               Pose(np.eye(3), np.array([500.0, 0.0, 900.0])))
        good_first = evaluate([est[0], bogus], gt, models)
        assert good_first.report.ar_bop == 1.0
        bad_first = evaluate([bogus, est[0]], gt, models)
        assert bad_first.report.ar_bop < 0.5

    def test_extra_estimates_ignored_but_counted(self):
        models, gt, est = tiny_scene(n_images=1, obj_ids=(1,))
        stray = EstimateRecord(9, 9, 1, 0.5, est[0].pose)
        res = evaluate(est + [stray], gt, models)
        assert res.n_extra == 1
        assert res.report.ar_bop == 1.0

    def test_symmetric_flag_selects_add_s(self):
        models, gt, est = tiny_scene(n_images=1, obj_ids=(1, 2))
        res = evaluate(est, gt, models)
        kinds = {s.obj_id: s.metric_kind for s in res.samples
                 if s.metric_kind in ("add", "add-s")}
        assert kinds == {1: "add", 2: "add-s"}

    def test_duplicate_ground_truth_rejected(self):
        models, gt, est = tiny_scene(n_images=1, obj_ids=(1,))
        with pytest.raises(InvalidConfig):
            evaluate(est, gt + gt, models)

    def test_mixed_image_widths_rejected(self):
        models, gt, est = tiny_scene(n_images=2, obj_ids=(1,))
        other = GroundTruthRecord(gt[1].scene_id, gt[1].im_id, gt[1].obj_id,
                                  gt[1].pose, small_camera(width=64))
        with pytest.raises(InvalidConfig):
            evaluate(est, [gt[0], other], models)

    def test_unknown_object_rejected(self):
        models, gt, est = tiny_scene(n_images=1, obj_ids=(1,))
        with pytest.raises(MissingDiameter):
            evaluate(est, gt, {})

    def test_empty_ground_truth_rejected(self):
        models, _, est = tiny_scene(n_images=1, obj_ids=(1,))
        with pytest.raises(EmptyInput):
            evaluate(est, [], models)

    def test_estimates_may_be_a_generator(self):
        models, gt, est = tiny_scene(n_images=1, obj_ids=(1,))
        est = est + [EstimateRecord(9, 9, 1, 0.5, est[0].pose)]
        listed = evaluate(est, gt, models)
        streamed = evaluate(iter(est), gt, models)
        assert streamed.n_extra == listed.n_extra == 1
        assert streamed.samples == listed.samples

    def test_samples_equal_the_per_instance_errors(self):
        # images of one to three instances, each record with its own camera height
        # and focal length; one instance has no estimate
        gen = np.random.default_rng(79)
        models = {}
        for obj_id in (1, 2, 3):
            m = random_mesh(gen, max_vertices=12, max_triangles=16)
            models[obj_id] = make_model(m.vertices, m.triangles, random_symmetries(gen, 3), symmetric_flag=obj_id == 2)
        gt, est = [], []
        for scene_id, im_id, obj_ids in [(2, 0, (1, 3)), (1, 1, (2,)), (1, 0, (3, 1, 2))]:
            for obj_id in obj_ids:
                cam = small_camera(height=int(gen.integers(16, 40)), fx=gen.uniform(30.0, 60.0))
                pose = random_pose(gen, z_range=(300.0, 700.0))
                gt.append(GroundTruthRecord(scene_id, im_id, obj_id, pose, cam))
                if (scene_id, obj_id) != (2, 3):
                    moved = Pose(pose.rotation, pose.translation + gen.normal(0.0, 8.0, 3))
                    est.append(EstimateRecord(scene_id, im_id, obj_id, 0.5, moved))
        res = evaluate(est, gt, models)
        grid, chosen = res.report.grid, {(e.scene_id, e.im_id, e.obj_id): e.pose for e in est}
        want = []
        for rec in sorted(gt, key=lambda r: (r.scene_id, r.im_id, r.obj_id)):
            key, m = (rec.scene_id, rec.im_id, rec.obj_id), models[rec.obj_id]
            add_kind = "add-s" if m.symmetric_flag else "add"
            p = chosen.get(key)
            if p is None:
                want += [ErrorSample(*key, "vsd", vsd_errors=(np.inf,) * len(grid.vsd_taus)),
                         ErrorSample(*key, "mssd"), ErrorSample(*key, "mspd"), ErrorSample(*key, add_kind)]
                continue
            vsd = e_vsd(m, p, rec.pose, rec.camera, [f * m.diameter for f in grid.vsd_taus])
            add = e_add_s(m, p, rec.pose) if m.symmetric_flag else e_add(m, p, rec.pose)
            want += [ErrorSample(*key, "vsd", vsd_errors=tuple(vsd)),
                     ErrorSample(*key, "mssd", error_value=e_mssd(m, p, rec.pose)),
                     ErrorSample(*key, "mspd", error_value=e_mspd(m, p, rec.pose, rec.camera)),
                     ErrorSample(*key, add_kind, error_value=add)]
        assert res.samples == tuple(want)
        assert any(0.0 < s.vsd_errors[0] < 1.0 for s in res.samples if s.metric_kind == "vsd")
        behind = EstimateRecord(1, 1, 2, 0.9, Pose(np.eye(3), np.array([0.0, 0.0, -500.0])))
        with pytest.raises(NonPositiveDepth):
            evaluate(est + [behind], gt, models)

    def test_default_grid_uses_image_width(self):
        models, gt, est = tiny_scene(n_images=1, obj_ids=(1,))
        res = evaluate(est, gt, models)
        assert res.report.grid.image_width == small_camera().width


class TestReportSerialization:
    def test_dict_and_csv_roundtrip_values(self):
        models, gt, est = tiny_scene(n_images=2, obj_ids=(1,))
        rep = evaluate(est[:1], gt, models).report
        d = report_to_dict(rep)
        assert d["ar_bop"] == rep.ar_bop
        assert len(d["per_object"]) == 1
        csv_text = report_to_csv(rep)
        lines = csv_text.strip().splitlines()
        assert lines[0] == "scope,obj_id,metric,tau,threshold,value"
        assert any(ln.startswith("dataset,,ar_bop") for ln in lines)
        # every data row parses
        for ln in lines[1:]:
            parts = ln.split(",")
            assert len(parts) == 6
            float(parts[5])
