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

ROT_Z90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def cube_vertices(side=1.0):
    h = side / 2.0
    return np.array([[sx * h, sy * h, sz * h]
                     for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])


class TestPose:
    def test_identity(self):
        p = Pose.identity()
        assert p.is_identity()
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

    def test_memory_grows_linearly_not_quadratically(self):
        verts = np.random.default_rng(3).uniform(-50.0, 50.0, size=(3000, 3))
        assert peak_traced_bytes(lambda: geom._pairwise_diameter(verts)) < 64 * 2**20

    def test_memory_is_two_blocks_and_a_term(self):
        # a 128-row block of float64 is 1 KB per vertex: the caller's previous
        # block, the one being built and one squared coordinate difference
        verts = np.random.default_rng(5).uniform(-50.0, 50.0, size=(3000, 3))
        assert peak_traced_bytes(lambda: geom._pairwise_diameter(verts)) < 3.5 * 1024 * len(verts)

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


class TestObjectModel:
    def test_make_model_computes_diameter_and_identity(self):
        m = make_model(cube_vertices(2.0))
        assert abs(m.diameter - 2.0 * math.sqrt(3.0)) < 1e-12
        assert m.symmetries[0].is_identity()

    def test_make_model_computes_the_diameter_once(self, diameter_calls):
        make_model(cube_vertices(1.0))
        assert diameter_calls == [8]

    def test_none_diameter_is_computed(self):
        m = ObjectModel(cube_vertices(1.0), np.zeros((0, 3), dtype=np.int64))
        assert m.diameter == oracles.diameter_reference(m.vertices)

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
