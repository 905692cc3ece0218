"""Rigid transforms, pinhole projection, and model geometry."""

import math

import numpy as np
import pytest

import oracles
from conftest import peak_traced_bytes, random_model, random_pose, random_rotation
from fastpose import geom
from fastpose.errors import DegenerateInput, EmptyModel, InvalidRotation, NonPositiveDepth
from fastpose.geom import (
    CameraIntrinsics,
    ObjectModel,
    Pose,
    is_rotation,
    make_model,
    project_point,
    project_points,
    rot6d_to_matrix,
)
from fastpose.metrics import e_add_s

ROT_Z90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def cube_vertices(side=1.0):
    h = side / 2.0
    return np.array([[sx * h, sy * h, sz * h]
                     for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])


class TestPose:
    def test_identity(self):
        p = Pose.identity()
        assert np.array_equal(p.rotation, np.eye(3)) and np.array_equal(p.translation, np.zeros(3))
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(p.transform(x[None])[0], x)

    def test_rejects_non_rotation(self):
        with pytest.raises(InvalidRotation):
            Pose(np.zeros((3, 3)), np.zeros(3))
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(InvalidRotation):
            Pose(reflection, np.zeros(3))
        with pytest.raises(InvalidRotation):
            Pose(2.0 * np.eye(3), np.zeros(3))

    def test_compose_matches_matrix_product(self):
        gen = np.random.default_rng(7)
        a, b = random_pose(gen), random_pose(gen)
        ab = a.compose(b)
        x = gen.standard_normal((1, 3))
        via_compose = ab.transform(x)
        via_steps = a.transform(b.transform(x))
        np.testing.assert_allclose(via_compose, via_steps, atol=1e-9)

    def test_inverse_roundtrip(self):
        gen = np.random.default_rng(11)
        for _ in range(100):
            p = random_pose(gen)
            x = gen.uniform(-100, 100, (1, 3))
            back = p.inverse().transform(p.transform(x))
            assert np.abs(back - x).max() < 1e-6

    def test_transform_matches_manual_loop(self):
        gen = np.random.default_rng(3)
        p = random_pose(gen)
        pts = gen.uniform(-50, 50, size=(6, 3))
        got = p.transform(pts)
        want = np.array([p.rotation @ row + p.translation for row in pts])
        np.testing.assert_allclose(got, want, atol=1e-9)

    def test_is_rotation(self):
        assert is_rotation(np.eye(3))
        assert is_rotation(ROT_Z90)
        assert not is_rotation(np.diag([1.0, 1.0, -1.0]))
        assert not is_rotation(np.ones((3, 3)))

    def test_stacked_is_rotation_matches_per_matrix_calls(self):
        gen = np.random.default_rng(29)
        stack = np.stack([random_rotation(gen) for _ in range(12)])
        stack[1] = np.diag([1.0, 1.0, -1.0])  # det -1
        stack[2, 0, 1] = np.nan
        stack[3, 2, 2] = np.inf
        stack[4, 1, 0] = -np.inf
        stack[5] *= 1.0 + 2e-6  # orthogonal rows, off by the norm
        stack[6] = -stack[6]  # det -1 of a random rotation
        got = is_rotation(stack.reshape(3, 4, 3, 3))  # any leading shape
        assert got.shape == (3, 4)
        assert got.ravel().tolist() == [bool(is_rotation(m)) for m in stack]
        assert got.ravel().tolist() == [True] + [False] * 6 + [True] * 5


def near_tol_rotation(gen, deviation: str, offset: float) -> np.ndarray:
    """A random rotation scaled so that its Gram ("gram") or determinant
    ("det") deviation is ROTATION_TOL + offset, the other one smaller."""
    r = random_rotation(gen)
    if deviation == "gram":  # column 0 times 1 + e: Gram deviation 2e + e^2, determinant deviation e
        return r * np.array([np.sqrt(1.0 + geom.ROTATION_TOL + offset), 1.0, 1.0])
    return r * np.cbrt(1.0 + geom.ROTATION_TOL + offset)  # determinant 3e + ..., Gram 2e + e^2


def fuzz_matrix(gen) -> np.ndarray:
    kind = int(gen.integers(0, 12))
    if kind < 6:  # half land at tol -+ 1e-17 .. 1e-9, where the two computations' rounding can straddle tol
        return near_tol_rotation(gen, "gram" if kind < 3 else "det",
                                 float(gen.choice([-1.0, 1.0]) * 10.0 ** gen.uniform(-17.0, -9.0)))
    m = random_rotation(gen)
    i, j = gen.integers(0, 3, 2)
    if kind == 6:
        return -m  # det -1
    if kind == 7:
        m[i, j] = np.nan
    elif kind == 8:
        m[i, j] = gen.choice([np.inf, -np.inf])
    elif kind == 9:
        m[i, j] = gen.choice([1e150, -1e150])
    elif kind == 10:
        return np.zeros((3, 3))
    return m


def axial_table(order: int) -> np.ndarray:
    """Rotations about z by 2 pi k / order, each also after a half turn about x."""
    out = []
    for k in range(order):
        c, s = math.cos(2 * math.pi * k / order), math.sin(2 * math.pi * k / order)
        rz = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        out += [rz, np.diag([1.0, -1.0, -1.0]) @ rz]
    return np.array(out)


def counting_exact(monkeypatch) -> list:
    """Patch is_rotation's exact check to record the shape of every stack it gets."""
    calls, exact = [], geom._is_rotation_exact

    def counted(m, tol):
        calls.append(m.shape)
        return exact(m, tol)

    monkeypatch.setattr(geom, "_is_rotation_exact", counted)
    return calls


class TestRotationScreen:
    """is_rotation screens large stacks; its decisions are the definition's."""

    @pytest.mark.parametrize("size", [1, 2, 3, 47, 48, 49, 100, 315, 629, 630, 700])
    def test_decisions_equal_the_reference_on_the_fuzz(self, monkeypatch, size):
        gen = np.random.default_rng(size)
        calls = counting_exact(monkeypatch)
        for _ in range(6):
            stack = np.stack([fuzz_matrix(gen) for _ in range(size)])
            assert is_rotation(stack).tolist() == oracles.is_rotation_reference(stack).tolist()
        checked = sum(shape[0] for shape in calls)
        if size >= geom._SCREEN_MIN:  # the band is reached, but not by every matrix
            assert 0 < checked < 6 * size
        else:
            assert checked == 6 * size

    def test_leading_shape_and_tolerance_are_kept(self):
        gen = np.random.default_rng(103)
        stack = np.stack([fuzz_matrix(gen) for _ in range(120)]).reshape(4, 30, 3, 3)
        for tol in (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 2.0):
            got = is_rotation(stack, tol)
            assert got.shape == (4, 30)
            assert got.tolist() == oracles.is_rotation_reference(stack, tol).tolist()

    def test_ordinary_tables_never_take_the_exact_check(self, monkeypatch):
        calls = counting_exact(monkeypatch)
        gen = np.random.default_rng(107)
        tables = [axial_table(315), axial_table(24)]
        tables += [np.stack([random_rotation(gen) for _ in range(n)]) for n in (48, 200, 700)]
        for table in tables:
            assert is_rotation(table).all()
        rows = np.concatenate([tables[0], np.zeros((630, 3, 1))], axis=2)
        assert len(make_model(cube_vertices(), symmetries=rows).symmetries) == 630
        assert calls == []

    def test_a_stack_below_the_screen_size_takes_the_exact_check(self, monkeypatch):
        calls = counting_exact(monkeypatch)
        table = axial_table(315)
        assert is_rotation(table[:geom._SCREEN_MIN - 1]).all()
        assert is_rotation(table[0])
        assert calls == [(geom._SCREEN_MIN - 1, 3, 3), (3, 3)]


class TestProjection:
    def test_pinhole_by_hand(self):
        cam = CameraIntrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0, width=64, height=64)
        uv = project_point(cam, [10.0, 0.0, 1000.0])
        np.testing.assert_allclose(uv, [1.0, 0.0], atol=1e-12)

    def test_principal_point_offset(self):
        cam = CameraIntrinsics(fx=50.0, fy=60.0, cx=8.0, cy=9.0, width=32, height=24)
        uv = project_point(cam, [0.0, 0.0, 500.0])
        np.testing.assert_allclose(uv, [8.0, 9.0], atol=1e-12)

    def test_non_positive_depth_rejected(self):
        cam = CameraIntrinsics(fx=50.0, fy=50.0, cx=0.0, cy=0.0, width=32, height=24)
        with pytest.raises(NonPositiveDepth):
            project_point(cam, [0.0, 0.0, 0.0])
        with pytest.raises(NonPositiveDepth):
            project_point(cam, [0.0, 0.0, -5.0])
        with pytest.raises(NonPositiveDepth):
            project_points(cam, np.array([[0.0, 0.0, 10.0], [0.0, 0.0, -1.0]]))

    def test_batched_matches_single_bitwise(self):
        gen = np.random.default_rng(5)
        cam = CameraIntrinsics(fx=47.0, fy=53.0, cx=16.0, cy=12.0, width=32, height=24)
        pts = np.column_stack([gen.uniform(-50, 50, 20), gen.uniform(-50, 50, 20),
                               gen.uniform(100, 900, 20)])
        batched = project_points(cam, pts)
        for i in range(len(pts)):
            assert np.array_equal(batched[i], project_point(cam, pts[i]))


class TestDiameter:
    def test_single_vertex_zero(self):
        m = make_model(np.array([[1.0, 2.0, 3.0]]))
        assert m.diameter == 0.0

    def test_two_vertices(self):
        m = make_model(np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0]]))
        assert m.diameter == 2.0

    def test_unit_cube_sqrt3(self):
        m = make_model(cube_vertices(1.0))
        assert abs(m.diameter - math.sqrt(3.0)) < 1e-12
        assert m.diameter == oracles.diameter_reference(m.vertices)

    def test_matches_pairwise_scan_exactly(self):
        gen = np.random.default_rng(13)
        for _ in range(50):
            m = random_model(gen)
            assert m.diameter == oracles.diameter_reference(m.vertices)

    def test_empty_model_raises(self):
        with pytest.raises(EmptyModel):
            ObjectModel(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64))

    def test_matches_pairwise_scan_across_row_blocks(self):
        gen = np.random.default_rng(17)
        for n in (127, 128, 129, 300):
            verts = gen.uniform(-30.0, 30.0, size=(n, 3))
            assert make_model(verts).diameter == oracles.diameter_reference(verts)

    @pytest.mark.parametrize("kind", ["one", "two", "all_equal", "collinear", "far_offset"])
    def test_candidate_filter_edge_cases(self, monkeypatch, kind):
        monkeypatch.setattr(geom, "_BLOCK_ELEMS", 1)  # the filter runs from two vertices on
        gen = np.random.default_rng(23)
        verts = {
            "one": np.array([[4.0, -2.0, 7.5]]),
            "two": np.array([[0.0, 0.0, 0.0], [3.0, -4.0, 12.0]]),
            "all_equal": np.tile([[1.5, -2.5, 3.5]], (7, 1)),
            "collinear": np.outer(gen.uniform(-50.0, 50.0, 40), [1.0, -2.0, 0.5]) + [3.0, 1.0, -7.0],
            # a 1 mm mesh 1e6 mm from the origin: large coordinates, small differences
            "far_offset": gen.uniform(-0.5, 0.5, (60, 3)) + 1e6,
        }[kind]
        assert geom._pairwise_diameter(verts) == oracles.diameter_reference(verts)

    def test_candidate_filter_scans_fewer_vertices_except_on_a_sphere(self, monkeypatch):
        scanned = []
        kernel = geom._sq_distance_blocks

        def spy(a, b, upper=False):
            scanned.append(len(a))
            return kernel(a, b, upper)

        monkeypatch.setattr(geom, "_sq_distance_blocks", spy)
        gen = np.random.default_rng(31)
        cube = gen.uniform(-50.0, 50.0, size=(400, 3))
        # every vertex of a uniform sphere can end a longest pair: nothing is dropped
        sphere = gen.standard_normal((400, 3))
        sphere *= 50.0 / np.linalg.norm(sphere, axis=1, keepdims=True)
        for verts in (cube, sphere):
            assert geom._pairwise_diameter(verts) == oracles.diameter_reference(verts)
        assert scanned[0] < len(cube) // 4
        assert scanned[1] == len(sphere)
        # a mesh whose full scan fits in one block is scanned whole
        small = cube[:math.isqrt(geom._BLOCK_ELEMS)]
        assert geom._pairwise_diameter(small) == oracles.diameter_reference(small)
        assert scanned[2] == len(small)

    def test_memory_grows_linearly_not_quadratically(self):
        verts = np.random.default_rng(3).uniform(-50.0, 50.0, size=(3000, 3))
        assert peak_traced_bytes(lambda: geom._pairwise_diameter(verts)) < 64 * 2**20

    def test_memory_is_two_blocks_and_a_term(self):
        # a block holds _BLOCK_ELEMS float64 distances (256 KiB): the caller's
        # previous block, the one being built and one squared coordinate
        # difference, next to two 24-byte-per-vertex coordinate-plane copies
        verts = np.random.default_rng(5).uniform(-50.0, 50.0, size=(3000, 3))
        bound = 3.5 * 8 * geom._BLOCK_ELEMS + 64 * len(verts)
        assert peak_traced_bytes(lambda: geom._pairwise_diameter(verts)) < bound

    def test_planar_kernel_matches_interleaved_expression(self):
        gen = np.random.default_rng(19)
        block_edges = (1, 2, 127, 128, 129, 255, 256, 257)
        for case in range(320):
            n = block_edges[case % len(block_edges)] if case % 2 else int(gen.integers(1, 400))
            scale = 10.0 ** gen.uniform(-3.0, 3.0)
            a = gen.standard_normal((n, 3)) * scale
            b = gen.standard_normal((int(gen.integers(1, 300)), 3)) * scale
            if case % 5 == 0:  # whole-number coordinates make exact ties
                a, b = np.round(a), np.round(b)
            got = np.concatenate(list(geom._sq_distance_blocks(a, b)))
            assert got.tobytes() == oracles.sq_distances_interleaved(a, b).tobytes(), case


class TestBlockedKernel:
    """_sq_distance_blocks, the diameter and ADD-S with _BLOCK_ELEMS shrunk so
    that blocks hold one row, several rows, or end in a partial block."""

    @pytest.mark.parametrize("per_vertex, extra", [(0, 1), (0, 7), (1, -1), (1, 0), (1, 1), (2, -1), (3, 1)],
                             ids=["1", "7", "n-1", "n", "n+1", "2n-1", "3n+1"])
    def test_block_sizes_match_the_oracles_bit_for_bit(self, monkeypatch, per_vertex, extra):
        gen = np.random.default_rng(29)
        for case in range(12):
            n = int(gen.integers(1, 40))
            if case % 3 == 0:  # whole-number coordinates on a small grid make exact ties
                v = gen.integers(-3, 4, size=(n, 3)).astype(np.float64)
            else:
                v = gen.uniform(-30.0, 30.0, size=(n, 3))
            w = gen.uniform(-30.0, 30.0, size=(int(gen.integers(1, 40)), 3))
            monkeypatch.setattr(geom, "_BLOCK_ELEMS", per_vertex * n + extra)
            m = make_model(v)
            assert m.diameter == oracles.diameter_reference(v), case
            a = random_pose(gen, z_range=(600.0, 900.0))
            b = random_pose(gen, z_range=(600.0, 900.0))
            assert e_add_s(m, a, b) == oracles.add_s_reference(m, a, b), case
            full = np.concatenate(list(geom._sq_distance_blocks(v, w)))
            assert full.tobytes() == oracles.sq_distances_interleaved(v, w).tobytes(), case
            ref, start = oracles.sq_distances_interleaved(v, v), 0
            for d2 in geom._sq_distance_blocks(v, v, upper=True):
                assert d2.tobytes() == ref[start:start + len(d2), start:].tobytes(), case
                start += len(d2)
            assert start == n

    def test_block_rows_follow_block_elems(self, monkeypatch):
        v = np.arange(30.0).reshape(10, 3)
        monkeypatch.setattr(geom, "_BLOCK_ELEMS", 25)  # 2 rows of 10 per block
        assert [d2.shape for d2 in geom._sq_distance_blocks(v, v)] == [(2, 10)] * 5
        assert [d2.shape for d2 in geom._sq_distance_blocks(v, v, upper=True)] == [(2, 10), (2, 8), (2, 6), (2, 4), (2, 2)]

    def test_one_row_per_block_when_b_exceeds_the_block(self):
        gen = np.random.default_rng(7)
        a, b = gen.uniform(-50.0, 50.0, size=(4, 3)), gen.uniform(-50.0, 50.0, size=(geom._BLOCK_ELEMS + 5000, 3))
        shapes = []

        def scan():
            for d2 in geom._sq_distance_blocks(a, b):
                shapes.append(d2.shape)

        # three one-row blocks alive at most, next to b's coordinate planes
        assert peak_traced_bytes(scan) < 3.5 * 8 * len(b) + 32 * len(b)
        assert shapes == [(1, len(b))] * len(a)


class TestObjectModel:
    def test_make_model_computes_diameter_and_identity(self):
        m = make_model(cube_vertices(2.0))
        assert abs(m.diameter - 2.0 * math.sqrt(3.0)) < 1e-12
        assert m.symmetries.shape == (1, 3, 4)
        assert np.array_equal(m.symmetries[0], np.eye(3, 4))

    def test_make_model_computes_the_diameter_once(self, diameter_calls):
        make_model(cube_vertices(1.0))
        assert diameter_calls == [8]

    def test_none_diameter_is_computed(self):
        m = ObjectModel(cube_vertices(1.0), np.zeros((0, 3), dtype=np.int64))
        assert m.diameter == oracles.diameter_reference(m.vertices)

    @pytest.mark.parametrize("coord", [np.nan, np.inf, -np.inf])
    def test_non_finite_vertex_rejected_before_the_diameter(self, diameter_calls, coord):
        v = cube_vertices(1.0)
        v[5, 1] = coord
        with pytest.raises(ValueError, match="finite"):
            make_model(v)
        with pytest.raises(ValueError, match="finite"):
            ObjectModel(v, np.zeros((0, 3), dtype=np.int64), diameter=1.0)
        assert diameter_calls == []

    def test_vertexless_model_needs_a_stated_zero_diameter(self):
        no_verts, no_tris = np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)
        with pytest.raises(EmptyModel):
            ObjectModel(no_verts, no_tris)
        with pytest.raises(EmptyModel):
            make_model(no_verts)
        with pytest.raises(ValueError):
            ObjectModel(no_verts, no_tris, diameter=5.0)

    def test_stated_diameter_validated(self):
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            ObjectModel(verts, np.zeros((0, 3), dtype=np.int64), diameter=5.0)

    def test_symmetries_must_include_identity(self):
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            ObjectModel(verts, np.zeros((0, 3), dtype=np.int64), diameter=1.0, symmetries=())
        with pytest.raises(ValueError):
            ObjectModel(verts, (), diameter=1.0, symmetries=np.hstack([ROT_Z90, np.zeros((3, 1))]))
        near = np.eye(3, 4)
        near[2, 3] = 1e-6  # within the identity tolerance
        assert ObjectModel(verts, (), diameter=1.0, symmetries=near).symmetries.shape == (1, 3, 4)

    def test_symmetries_are_one_read_only_stack(self):
        rows = [np.hstack([ROT_Z90, [[1.0], [2.0], [3.0]]])]
        m = make_model([[0.0, 0.0, 0.0]], symmetries=np.array(rows).reshape(12))
        assert m.symmetries.dtype == np.float64 and m.symmetries.shape == (2, 3, 4)
        assert np.array_equal(m.symmetries[1], rows[0])
        with pytest.raises(ValueError):
            m.symmetries[1, 0, 0] = 0.0
        assert len(make_model([[0.0, 0.0, 0.0]], symmetries=[np.eye(3, 4)] + rows).symmetries) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("at", [(0, 0), (2, 3)])
    def test_non_finite_symmetry_rejected(self, bad, at):
        row = np.hstack([ROT_Z90, np.zeros((3, 1))])
        row[at] = bad
        with pytest.raises(InvalidRotation):
            make_model([[0.0, 0.0, 0.0]], symmetries=[row])

    def test_reflection_symmetry_rejected(self):
        row = np.hstack([np.diag([1.0, 1.0, -1.0]), np.zeros((3, 1))])
        with pytest.raises(InvalidRotation):
            make_model([[0.0, 0.0, 0.0]], symmetries=[row])

    def test_triangle_indices_validated(self):
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        with pytest.raises(Exception):
            make_model(verts, [[0, 1, 5]])


class TestRot6d:
    def test_canonical_basis(self):
        np.testing.assert_allclose(rot6d_to_matrix([1, 0, 0, 0, 1, 0]), np.eye(3), atol=1e-12)

    def test_scale_invariance(self):
        np.testing.assert_allclose(rot6d_to_matrix([2, 0, 0, 0, 3, 0]), np.eye(3), atol=1e-12)

    def test_zero_first_vector_rejected(self):
        with pytest.raises(DegenerateInput):
            rot6d_to_matrix([0, 0, 0, 0, 1, 0])

    def test_parallel_vectors_rejected(self):
        with pytest.raises(DegenerateInput):
            rot6d_to_matrix([1, 0, 0, 2, 0, 0])

    def test_orthonormal_over_1000_seeds(self):
        gen = np.random.default_rng(17)
        for _ in range(1000):
            m = rot6d_to_matrix(gen.standard_normal(6))
            assert np.abs(m.T @ m - np.eye(3)).max() < 1e-6
            assert abs(np.linalg.det(m) - 1.0) < 1e-6
