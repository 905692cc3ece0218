"""Pose-error metrics, recall grids, and AR aggregation."""

import math

import numpy as np
import pytest

import oracles
from conftest import peak_traced_bytes, random_model, random_pose, small_camera
from fastpose.datio import EstimateRecord, GroundTruthRecord
from fastpose.errors import EmptyInput, EmptyModel, InvalidConfig, LengthMismatch, MissingDiameter
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


class TestMssd:
    def test_identical_poses(self):
        m = cube_model()
        p = Pose(np.eye(3), T)
        assert e_mssd(m, p, p) == 0.0

    def test_listed_symmetry_absorbed(self):
        sym = Pose(ROT_Z90, np.zeros(3))
        m = cube_model(symmetries=(sym,))
        gt = Pose(np.eye(3), T)
        assert e_mssd(m, gt.compose(sym), gt) < 1e-6

    def test_unit_cube_quarter_turn_identity_only(self):
        m = cube_model(1.0)
        assert abs(e_mssd(m, Pose(ROT_Z90, T), Pose(np.eye(3), T)) - 1.0) < 1e-12

    def test_symmetry_product_outside_rotation_tolerance_is_scored(self):
        # each rotation passes the 1e-6 check, their product misses it by rounding
        sym = Pose(np.diag([-(1 + 4.9e-7), -1.0, 1.0]), np.zeros(3))
        m = cube_model(20.0, symmetries=(sym,))
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
        m = cube_model(20.0, symmetries=(sym,))
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

    def test_vsd_table_is_10_by_10(self):
        grid = ThresholdGrid.bop_default()
        rep = average_recall(perfect_samples(1, 2, grid), grid, {1: 50.0})
        table = rep.per_object[0].vsd_table
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
