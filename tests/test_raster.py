"""Z-buffer rasterizer: coverage rules, depth values, clipping, determinism."""

import itertools
import math
import types

import numpy as np
import pytest

import oracles
from conftest import peak_traced_bytes, random_mesh, random_pose, small_camera
from fastpose import raster
from fastpose.geom import CameraIntrinsics, ObjectModel, Pose, make_model
from fastpose.raster import NEAR_MM, DistanceMap, _clip_near, render_distance_map, render_distance_maps, write_pgm

IDENTITY = Pose.identity()


def screen_camera(width=28, height=28):
    """fx=fy=1000 and cx=cy=0 so a vertex (X, Y, 1000) lands on pixel (X, Y)."""
    return CameraIntrinsics(fx=1000.0, fy=1000.0, cx=0.0, cy=0.0, width=width, height=height)


def screen_quad_models(z=1000.0):
    """A 10x10 screen-aligned square split along its main diagonal."""
    v = np.array([
        [10.0, 10.0, z], [20.0, 10.0, z], [20.0, 20.0, z], [10.0, 20.0, z],
    ]) * (z / 1000.0)
    tri_a = make_model(v, [[0, 1, 2]])
    tri_b = make_model(v, [[0, 2, 3]])
    quad = make_model(v, [[0, 1, 2], [0, 2, 3]])
    return tri_a, tri_b, quad


class TestCoverage:
    def test_empty_triangle_list(self):
        m = make_model(np.array([[0.0, 0.0, 500.0], [10.0, 0.0, 500.0]]))
        out = render_distance_map(m, IDENTITY, small_camera())
        assert not out.visible.any()
        assert (out.depth == 0).all()

    def test_empty_vertex_list(self):
        m = ObjectModel(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64), diameter=0.0)
        out = render_distance_map(m, IDENTITY, small_camera())
        assert not out.visible.any()

    def test_fully_offscreen(self):
        m = make_model(np.array([[900.0, 0.0, 500.0], [940.0, 0.0, 500.0], [900.0, 40.0, 500.0]]),
                       [[0, 1, 2]])
        out = render_distance_map(m, IDENTITY, small_camera())
        assert not out.visible.any()

    def test_square_covers_half_open_pixel_box(self):
        # top/left edges own their pixels, bottom/right do not
        _, _, quad = screen_quad_models()
        out = render_distance_map(quad, IDENTITY, screen_camera())
        want = np.zeros((28, 28), dtype=bool)
        want[10:20, 10:20] = True
        assert np.array_equal(out.visible, want)

    def test_shared_diagonal_pixels_drawn_exactly_once(self):
        tri_a, tri_b, quad = screen_quad_models()
        cam = screen_camera()
        mask_a = render_distance_map(tri_a, IDENTITY, cam).visible
        mask_b = render_distance_map(tri_b, IDENTITY, cam).visible
        assert not (mask_a & mask_b).any()
        assert np.array_equal(mask_a | mask_b,
                              render_distance_map(quad, IDENTITY, cam).visible)

    def test_winding_does_not_matter(self):
        gen = np.random.default_rng(23)
        cam = small_camera()
        for _ in range(5):
            m = random_mesh(gen)
            flipped = make_model(m.vertices, m.triangles[:, ::-1])
            pose = random_pose(gen, z_range=(300.0, 900.0))
            a = render_distance_map(m, pose, cam)
            b = render_distance_map(flipped, pose, cam)
            assert np.array_equal(a.visible, b.visible)
            # vertex order shifts the interpolation sum order by an ulp or two
            assert np.abs(a.depth - b.depth).max() < 1e-9


class TestDepth:
    def test_constant_plane_depth_at_principal_point(self):
        cam = CameraIntrinsics(fx=100.0, fy=100.0, cx=16.0, cy=12.0, width=32, height=24)
        m = make_model(np.array([[-50.0, -50.0, 1000.0], [80.0, -50.0, 1000.0],
                                 [-50.0, 80.0, 1000.0]]), [[0, 1, 2]])
        out = render_distance_map(m, IDENTITY, cam)
        assert out.visible[12, 16]
        assert abs(out.depth[12, 16] - 1000.0) < 1e-9

    def test_zbuffer_keeps_nearer_surface(self):
        near = np.array([[-50.0, -50.0, 500.0], [80.0, -50.0, 500.0], [-50.0, 80.0, 500.0]])
        far = near.copy()
        far[:, :2] *= 2.0  # same footprint in the image
        far[:, 2] = 1000.0
        m = make_model(np.vstack([near, far]), [[0, 1, 2], [3, 4, 5]])
        out = render_distance_map(m, IDENTITY, small_camera())
        assert out.visible.any()
        np.testing.assert_allclose(out.depth[out.visible], 500.0, atol=1e-9)

    def test_tilted_plane_matches_analytic_depth(self):
        # plane z = 800 + 2x; rays through pixel (r, c) hit it where
        # z = 800 / (1 - 2 (c - cx) / fx)
        cam = small_camera()
        m = make_model(np.array([[-300.0, -300.0, 200.0], [300.0, -300.0, 1400.0],
                                 [-300.0, 300.0, 200.0], [300.0, 300.0, 1400.0]]),
                       [[0, 1, 2], [1, 3, 2]])
        out = render_distance_map(m, IDENTITY, cam)
        for r, c in [(12, 16), (5, 8), (20, 25)]:
            assert out.visible[r, c]
            want = 800.0 / (1.0 - 2.0 * (c - cam.cx) / cam.fx)
            assert abs(out.depth[r, c] - want) < 1e-6


class TestAgainstRayCasting:
    def test_masks_exact_and_depth_close(self):
        gen = np.random.default_rng(29)
        cam = small_camera(width=32, height=32, fx=40.0, fy=44.0)
        for _ in range(15):
            m = random_mesh(gen, max_vertices=12, max_triangles=20)
            pose = random_pose(gen, z_range=(250.0, 900.0))
            got = render_distance_map(m, pose, cam)
            depth_ref, visible_ref = oracles.raycast(m, pose, cam)
            assert np.array_equal(got.visible, visible_ref)
            both = got.visible & visible_ref
            if both.any():
                assert np.abs(got.depth[both] - depth_ref[both]).max() < 1e-3

    def test_vectorized_raycast_matches_scalar(self):
        gen = np.random.default_rng(31)
        cam = small_camera(width=16, height=12)
        for _ in range(3):
            m = random_mesh(gen, max_triangles=6)
            pose = random_pose(gen, z_range=(300.0, 700.0))
            d_vec, v_vec = oracles.raycast(m, pose, cam)
            d_sca, v_sca = oracles.raycast_scalar(m, pose, cam)
            assert np.array_equal(d_vec, d_sca)
            assert np.array_equal(v_vec, v_sca)

    def test_straddling_triangle_agrees_after_clipping(self):
        cam = small_camera()
        m = make_model(np.array([[0.0, -30.0, -200.0], [60.0, 25.0, 600.0],
                                 [-70.0, 30.0, 700.0]]), [[0, 1, 2]])
        got = render_distance_map(m, IDENTITY, cam)
        depth_ref, visible_ref = oracles.raycast(m, IDENTITY, cam)
        assert got.visible.any()
        assert np.array_equal(got.visible, visible_ref)
        both = got.visible & visible_ref
        assert np.abs(got.depth[both] - depth_ref[both]).max() < 1e-3


def random_scene(gen: np.random.Generator, kind: int):
    """(model, pose, camera) for the loop comparison. kind 0: in front of the
    camera; 1: vertices on both sides of the near plane; 2: degenerate
    triangles (repeated or collinear vertices) mixed in; 3: mostly off-screen."""
    cam = small_camera(width=int(gen.integers(1, 48)), height=int(gen.integers(1, 48)),
                       fx=gen.uniform(15.0, 90.0), fy=gen.uniform(15.0, 90.0))
    m = random_mesh(gen, max_vertices=14, max_triangles=24)
    if kind == 1:
        verts = m.vertices.copy()
        verts[:, 2] = gen.uniform(-150.0, 250.0, len(verts))
        return make_model(verts, m.triangles), IDENTITY, cam
    if kind == 2:
        n = len(m.vertices)
        a, b = m.vertices[0], m.vertices[1]
        verts = np.vstack([m.vertices, a + 0.5 * (b - a), a + 2.0 * (b - a)])
        extra = [[0, 0, 1], [2, 2, 2], [0, 1, n], [n + 1, 1, 0]]
        return make_model(verts, np.vstack([m.triangles, extra])), random_pose(gen, z_range=(250.0, 900.0)), cam
    pose = random_pose(gen, z_range=(250.0, 900.0), xy_span=400.0 if kind == 3 else 20.0)
    return m, pose, cam


def screen_filling_grid(n: int, z=500.0) -> ObjectModel:
    """A tilted n by n grid of quads wider than the 640x480 view of
    `vga_camera` at depth z; each quad is split along both diagonals, so
    4 * n * n triangles cover every pixel twice."""
    xs, ys = np.meshgrid(np.linspace(-400.0, 400.0, n + 1), np.linspace(-300.0, 300.0, n + 1))
    verts = np.stack([xs.ravel(), ys.ravel(), z + 0.2 * xs.ravel()], axis=1)
    idx = np.arange((n + 1) ** 2).reshape(n + 1, n + 1)
    a, b, c, d = idx[:-1, :-1].ravel(), idx[:-1, 1:].ravel(), idx[1:, 1:].ravel(), idx[1:, :-1].ravel()
    tris = np.concatenate([np.stack(corners, axis=1) for corners in ((a, b, c), (a, c, d), (a, b, d), (b, c, d))])
    return ObjectModel(verts, tris)


def vga_camera() -> CameraIntrinsics:
    return CameraIntrinsics(fx=500.0, fy=500.0, cx=319.5, cy=239.5, width=640, height=480)


def unit_camera(width: int, height: int) -> CameraIntrinsics:
    """fx=fy=1 and cx=cy=0: a vertex (X z, Y z, z) projects to exactly (X, Y)."""
    return CameraIntrinsics(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=width, height=height)


def screen_vertices(corners) -> np.ndarray:
    """Camera-space vertices for (column, row, z) corners under `unit_camera`."""
    return np.array([[x * z, y * z, z] for x, y, z in corners], dtype=np.float64)


def box_class(tri: np.ndarray, cam: CameraIntrinsics) -> tuple[int, int]:
    """log2 of a camera-space triangle's clipped pixel box height and width,
    each rounded up to a power of two: the rasterizer's size class in a
    group of at least _SQUARE_TRIANGLES kept triangles."""
    px = cam.fx * tri[:, 0] / tri[:, 2] + cam.cx
    py = cam.fy * tri[:, 1] / tri[:, 2] + cam.cy
    rows = min(np.floor(py.max()), cam.height - 1) - max(np.ceil(py.min()), 0.0) + 1
    cols = min(np.floor(px.max()), cam.width - 1) - max(np.ceil(px.min()), 0.0) + 1
    return int(rows - 1).bit_length(), int(cols - 1).bit_length()


class TestAgainstTriangleLoop:
    """Byte identity with the one-triangle-at-a-time z-buffer (oracles.raster_loop)."""

    def test_random_scenes_match_byte_for_byte(self):
        gen = np.random.default_rng(47)
        for case in range(320):
            m, pose, cam = random_scene(gen, case % 4)
            got = render_distance_map(m, pose, cam)
            assert got.depth.tobytes() == oracles.raster_loop(m, pose, cam).tobytes(), case

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7, 64, 1000])
    def test_chunk_boundaries_do_not_change_depth(self, monkeypatch, chunk):
        monkeypatch.setattr(raster, "_CHUNK_PX", chunk)
        gen = np.random.default_rng(53 + chunk)
        for case in range(8):
            m, pose, cam = random_scene(gen, case % 4)
            got = render_distance_map(m, pose, cam)
            assert got.depth.tobytes() == oracles.raster_loop(m, pose, cam).tobytes(), case

    def test_full_frames_match_the_loop_and_are_read_only(self):
        gen = np.random.default_rng(59)
        for case in range(40):
            m, pose, cam = random_scene(gen, case % 4)
            got = render_distance_map(m, pose, cam)
            want = oracles.raster_loop(m, pose, cam)
            assert got.depth.tobytes() == want.tobytes(), case
            assert got.visible.tobytes() == (want > 0).tobytes(), case
            for frame in (got.depth, got.visible, got.box):
                assert not frame.flags.writeable, case

    def test_box_spans_the_footprint_only(self):
        _, _, quad = screen_quad_models()
        out = render_distance_map(quad, IDENTITY, screen_camera(640, 480))
        # pixel centres 10..20 lie in the quad's bounding box; 20 is not covered
        assert (out.row0, out.col0, out.box.shape) == (10, 10, (11, 11))
        assert out.depth.shape == (480, 640) and out.visible.sum() == 100
        empty = render_distance_map(make_model(np.zeros((3, 3)), [[0, 1, 2]]), IDENTITY, screen_camera(640, 480))
        assert empty.box.size == 0 and not empty.visible.any()

    def test_triangles_larger_than_a_chunk(self):
        m = screen_filling_grid(1)
        cam = vga_camera()
        got = render_distance_map(m, IDENTITY, cam)
        assert got.visible.all()
        assert got.depth.tobytes() == oracles.raster_loop(m, IDENTITY, cam).tobytes()

    @pytest.mark.parametrize("square", [False, True], ids=["rectangular-classes", "square-classes"])
    def test_pixel_centre_ties_on_shared_edges_across_size_classes(self, monkeypatch, square):
        # corners on whole pixels under a unit camera: the edge (2, 2)-(10, 6) passes
        # through the centres (4, 3), (6, 4) and (8, 5), and the top edge y = 2, the
        # bottom edge y = 13 and the edges x = 2 and x = 10 through rows and columns
        # of centres; the second triangle's size class differs from the other two
        if not square:  # the rectangular classes of a large group
            monkeypatch.setattr(raster, "_SQUARE_TRIANGLES", 0)
        cam = unit_camera(16, 16)
        verts = screen_vertices([(2, 2, 1.0), (10, 2, 2.0), (10, 6, 4.0), (2, 13, 3.0), (10, 13, 1.5)])
        tris = [[0, 1, 2], [0, 2, 3], [2, 4, 3]]
        classes = [box_class(verts[t], cam) for t in tris]
        assert classes[0] == classes[2] != classes[1]
        for winding in (slice(None), slice(None, None, -1)):
            masks = []
            for subset in ([0], [1], [2], [0, 1, 2]):
                m = make_model(verts, np.array(tris)[subset][:, winding])
                got = render_distance_map(m, IDENTITY, cam)
                assert got.depth.tobytes() == oracles.raster_loop(m, IDENTITY, cam).tobytes()
                masks.append(got.visible)
            assert not (masks[0] & masks[1]).any() and not (masks[1] & masks[2]).any()
            assert np.array_equal(masks[0] | masks[1] | masks[2], masks[3])
            assert masks[3][3, 4] and masks[3][4, 6] and masks[3][5, 8]
            assert masks[3][2, 2:10].all() and not masks[3][13].any() and not masks[3][:, 10].any()

    def test_front_triangles_and_near_clipped_pieces_in_one_size_class(self):
        cam = CameraIntrinsics(fx=100.0, fy=100.0, cx=32.0, cy=32.0, width=64, height=64)
        straddling = np.array([[-0.1, -0.1, -1.0], [0.3, 0.0, 3.0], [0.0, 0.3, 3.0]])
        front = np.array([[0.1, -0.05, 1.0], [0.1, 0.1, 1.5], [-0.05, 0.1, 1.2]])
        pieces = _clip_near(straddling, NEAR_MM)
        assert len(pieces) == 2
        assert len({box_class(tri, cam) for tri in [front, *pieces]}) == 1
        m = make_model(np.vstack([straddling, front]), [[0, 1, 2], [3, 4, 5]])
        got = render_distance_map(m, IDENTITY, cam)
        assert got.visible.sum() > 50
        assert got.depth.tobytes() == oracles.raster_loop(m, IDENTITY, cam).tobytes()

    @pytest.mark.parametrize("square", [False, True], ids=["rectangular-classes", "square-classes"])
    def test_one_triangle_per_size_class_one_pixel_per_pass(self, monkeypatch, square):
        monkeypatch.setattr(raster, "_CHUNK_PX", 1)
        if not square:
            monkeypatch.setattr(raster, "_SQUARE_TRIANGLES", 0)
        cam = unit_camera(48, 48)
        corners, tris = [], []
        for i, (x, y, w, h) in enumerate([(1, 1, 2, 2), (5, 1, 3, 5), (10, 1, 6, 3),
                                          (18, 1, 9, 9), (1, 12, 4, 17), (8, 30, 17, 4)]):
            corners += [(x, y, 1.0 + i), (x + w, y, 2.0), (x, y + h, 1.5)]
            tris.append([3 * i, 3 * i + 1, 3 * i + 2])
        verts = screen_vertices(corners)
        assert len({box_class(verts[t], cam) for t in tris}) == len(tris)
        m = make_model(verts, tris)
        got = render_distance_map(m, IDENTITY, cam)
        assert got.visible.any()
        assert got.depth.tobytes() == oracles.raster_loop(m, IDENTITY, cam).tobytes()

    def test_corners_far_outside_the_frame(self):
        cam = small_camera(width=30, height=20)  # padded boxes reach past the frame
        verts = np.array([
            [-1e150, -1e150, 1.0], [3e150, -1e150, 2.0], [-1e150, 3e150, 3.0],  # contains the frame
            [-1e150, -2e150, 1.0], [2e150, 1e150, 2.0], [-3e150, 1e150, 1.5],  # cuts across it
            [1e150, 1e150, 1.0], [2e150, 1e150, 1.0], [1e150, 2e150, 1.0],  # misses it
        ])
        for tris in ([[0, 1, 2]], [[3, 4, 5]], [[6, 7, 8]], [[0, 1, 2], [3, 4, 5], [6, 7, 8]]):
            m = make_model(verts, tris)
            got = render_distance_map(m, IDENTITY, cam)
            assert got.depth.tobytes() == oracles.raster_loop(m, IDENTITY, cam).tobytes(), tris
        assert got.visible.all()


def counted_passes(monkeypatch) -> list:
    """Patch the rasterizer's pass loop to record each pass it runs."""
    passes = []

    def product(*ranges):
        for p in itertools.product(*ranges):
            passes.append(p)
            yield p

    monkeypatch.setattr(raster, "itertools", types.SimpleNamespace(product=product))
    return passes


def expected_passes(classes) -> int:
    """Passes of untiled (log2 height, log2 width) classes, one per triangle."""
    counts = {}
    for c in classes:
        counts[c] = counts.get(c, 0) + 1
    return sum(math.ceil(n / (raster._CHUNK_PX >> (h + w))) for (h, w), n in counts.items())


def square(cls: tuple[int, int]) -> tuple[int, int]:
    side = max(cls)
    return (side, side) if side <= 4 else cls


def low_poly_cylinder(n: int, radius: float, height: float) -> ObjectModel:
    """A closed n-sided prism of 4 n triangles, like eval-crowd's objects."""
    a = np.arange(n) * (2 * np.pi / n)
    ring = np.stack([radius * np.cos(a), radius * np.sin(a), np.zeros(n)], axis=1)
    verts = np.vstack([ring + [0, 0, -height / 2], ring + [0, 0, height / 2], [[0, 0, -height / 2], [0, 0, height / 2]]])
    i, j = np.arange(n), (np.arange(n) + 1) % n
    tris = np.concatenate([np.stack(t, axis=1) for t in (
        (i, j, j + n), (i, j + n, i + n), (j, i, np.full(n, 2 * n)), (i + n, j + n, np.full(n, 2 * n + 1)))])
    return make_model(verts, tris)


class TestSquareClasses:
    """A group of fewer than _SQUARE_TRIANGLES kept triangles puts every box of
    at most _SQUARE_PX pixels into the square class of its larger side."""

    @staticmethod
    def boxes_around_16_px():
        """Triangles whose pixel boxes are 15, 16 and 17 px wide or high
        against 3, 15, 16 and 17 px, overlapping at different depths."""
        corners, tris = [], []
        sizes = [(w, h) for w in (3, 15, 16, 17) for h in (3, 15, 16, 17)]
        for k, (w, h) in enumerate(sizes):
            x, y = 2 + 9 * (k % 4), 2 + 9 * (k // 4)
            # corners on whole pixels: a box of w by h pixels spans w - 1 by h - 1
            corners += [(x, y, 2.0 + k % 3), (x + w - 1, y + 0.5, 3.0), (x + 0.25, y + h - 1, 1.5 + k % 5)]
            tris.append([3 * k, 3 * k + 1, 3 * k + 2])
        cam = unit_camera(64, 64)
        return make_model(screen_vertices(corners), tris), cam

    @pytest.mark.parametrize("square_classes", [False, True], ids=["at-the-threshold", "one-below-it"])
    def test_groups_either_side_of_the_threshold_match_the_loop(self, monkeypatch, square_classes):
        m, cam = self.boxes_around_16_px()
        n = len(m.triangles)
        classes = [box_class(m.vertices[t], cam) for t in m.triangles]
        assert {4, 5} <= {max(c) for c in classes}  # boxes on both sides of 16 px
        monkeypatch.setattr(raster, "_SQUARE_TRIANGLES", n + 1 if square_classes else n)
        passes = counted_passes(monkeypatch)
        got = render_distance_map(m, IDENTITY, cam)
        assert got.depth.tobytes() == oracles.raster_loop(m, IDENTITY, cam).tobytes()
        assert len(passes) == expected_passes([square(c) for c in classes] if square_classes else classes)

    def test_a_crowd_sized_group_takes_one_pass_per_square_class(self, monkeypatch):
        gen = np.random.default_rng(83)
        cam = CameraIntrinsics(fx=500.0, fy=500.0, cx=319.5, cy=239.5, width=640, height=480)
        jobs = []
        for k in range(8):
            pose = random_pose(gen, z_range=(1500.0, 2500.0), xy_span=400.0)
            jobs.append((low_poly_cylinder(6 + k % 3, 15.0, 30.0), pose, cam))
        classes = [box_class(pose.transform(model.vertices)[t], cam) for model, pose, _ in jobs for t in model.triangles]
        assert max(max(c) for c in classes) <= 4  # every box at most 16 px
        passes = counted_passes(monkeypatch)
        maps = render_distance_maps(jobs)
        # one pass per square class instead of one per (height, width) class
        assert len(passes) == expected_passes([square(c) for c in classes]) <= 5
        assert expected_passes(classes) > 2 * len(passes)
        for (model, pose, _), got in zip(jobs, maps):
            assert got.depth.tobytes() == oracles.raster_loop(model, pose, cam).tobytes()


def assert_batch_equals_singles(jobs):
    """render_distance_maps(jobs) equals one render_distance_map per job, byte for byte."""
    got = render_distance_maps(jobs)
    assert len(got) == len(jobs)
    for i, (job, g) in enumerate(zip(jobs, got)):
        want = render_distance_map(*job)
        assert (g.width, g.height, g.row0, g.col0, g.box.shape) == (
            want.width, want.height, want.row0, want.col0, want.box.shape), i
        assert g.box.tobytes() == want.box.tobytes(), i
        assert not g.box.flags.writeable, i
    return got


class TestBatch:
    """One render_distance_maps call for many (model, pose, camera) jobs."""

    @pytest.mark.parametrize("batch", [raster._BATCH_TRIANGLES, 40, 1])
    def test_random_batches_match_the_singles_and_the_loop(self, monkeypatch, batch):
        # random_scene draws each job's camera and frame size, so the boxes'
        # widths differ; kind 1 near-clips, kind 3 often keeps nothing
        monkeypatch.setattr(raster, "_BATCH_TRIANGLES", batch)
        gen = np.random.default_rng(67)
        for case in range(60):
            jobs = [random_scene(gen, int(gen.integers(0, 4))) for _ in range(int(gen.integers(1, 7)))]
            for job, got in zip(jobs, assert_batch_equals_singles(jobs)):
                assert got.depth.tobytes() == oracles.raster_loop(*job).tobytes(), case

    def test_empty_map_between_non_empty_ones(self):
        _, _, quad = screen_quad_models()
        empty = make_model(np.zeros((3, 3)), [[0, 1, 2]])
        wide = make_model(screen_vertices([(3, 2, 1.0), (25, 4, 2.0), (6, 9, 1.5)]), [[0, 1, 2]])
        jobs = [(quad, IDENTITY, screen_camera(40, 30)), (empty, IDENTITY, screen_camera()),
                (wide, IDENTITY, unit_camera(30, 12))]
        a, b, c = assert_batch_equals_singles(jobs)
        assert (b.row0, b.col0, b.box.shape) == (0, 0, (0, 0)) and not b.visible.any()
        assert a.box.shape[1] != c.box.shape[1] and a.visible.any() and c.visible.any()

    def test_no_job_keeps_a_triangle(self):
        empty = make_model(np.zeros((3, 3)), [[0, 1, 2]])
        none = ObjectModel(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64), diameter=0.0)
        maps = assert_batch_equals_singles([(empty, IDENTITY, small_camera()), (none, IDENTITY, screen_camera())])
        assert all(m.box.shape == (0, 0) for m in maps)
        assert render_distance_maps([]) == []

    def test_near_clipped_triangles_stay_in_their_own_map(self):
        cam = CameraIntrinsics(fx=100.0, fy=100.0, cx=32.0, cy=32.0, width=64, height=64)
        straddling = make_model(np.array([[-0.1, -0.1, -1.0], [0.3, 0.0, 3.0], [0.0, 0.3, 3.0]]), [[0, 1, 2]])
        _, _, quad = screen_quad_models()
        maps = assert_batch_equals_singles([(quad, IDENTITY, screen_camera()), (straddling, IDENTITY, cam),
                                            (quad, IDENTITY, cam)])
        assert maps[1].visible.sum() > 50

    @pytest.mark.parametrize("chunk, camera", [
        (raster._CHUNK_PX, vga_camera()),  # a size class larger than a chunk
        (7, CameraIntrinsics(fx=30.0, fy=30.0, cx=20.0, cy=15.0, width=40, height=30)),
    ])
    def test_size_classes_tiled_past_a_chunk(self, monkeypatch, chunk, camera):
        # the screen-filling grid's triangles each cover more than `chunk` pixels
        monkeypatch.setattr(raster, "_CHUNK_PX", chunk)
        gen = np.random.default_rng(71)
        jobs = [random_scene(gen, 0), (screen_filling_grid(1), IDENTITY, camera), random_scene(gen, 1)]
        maps = assert_batch_equals_singles(jobs)
        assert maps[1].visible.all()
        for job, got in zip(jobs, maps):
            assert got.depth.tobytes() == oracles.raster_loop(*job).tobytes()

    def test_jobs_share_a_pass_loop_up_to_the_triangle_bound(self, monkeypatch):
        monkeypatch.setattr(raster, "_BATCH_TRIANGLES", 40)
        calls = []
        real = raster._raster_triangles

        def spy(proj, corners, job, last):
            calls.append(last.shape[1])
            return real(proj, corners, job, last)

        monkeypatch.setattr(raster, "_raster_triangles", spy)
        gen = np.random.default_rng(73)
        verts = gen.uniform(-40.0, 40.0, (12, 3))
        jobs = [(make_model(verts, [gen.choice(12, 3, replace=False) for _ in range(k)]),
                 random_pose(gen, z_range=(300.0, 600.0)), small_camera()) for k in (10, 20, 50, 5, 5)]
        maps = render_distance_maps(jobs)
        # 10 + 20 fit in 40 triangles; 50 is alone; 5 + 5
        assert calls == [2, 1, 2]
        assert [m.depth.tobytes() for m in maps] == [oracles.raster_loop(*job).tobytes() for job in jobs]


class TestMemory:
    def test_40k_triangle_render_stays_bounded(self):
        m = screen_filling_grid(100)
        assert len(m.triangles) == 40_000
        out = {}
        peak = peak_traced_bytes(lambda: out.setdefault("map", render_distance_map(m, IDENTITY, vga_camera())))
        assert out["map"].visible.all()
        assert peak <= 48 * 2**20

    def test_many_jobs_stay_bounded(self):
        # 24 jobs of 1024 triangles: without the per-pass-loop triangle bound
        # the batch peaks at about 12.7 MB, with it at about 4.2 MB
        cam = CameraIntrinsics(fx=50.0, fy=50.0, cx=31.5, cy=23.5, width=64, height=48)
        jobs = [(screen_filling_grid(16), IDENTITY, cam)] * 24
        out = {}
        peak = peak_traced_bytes(lambda: out.setdefault("maps", render_distance_maps(jobs)))
        assert all(m.visible.all() for m in out["maps"])
        assert peak <= 6 * 2**20


class TestNearClip:
    def test_fully_behind_renders_nothing(self):
        m = make_model(np.array([[0.0, 0.0, -500.0], [40.0, 0.0, -500.0],
                                 [0.0, 40.0, -500.0]]), [[0, 1, 2]])
        out = render_distance_map(m, IDENTITY, small_camera())
        assert not out.visible.any()

    def test_clip_produces_fan_with_boundary_points(self):
        tri = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 3.0], [4.0, 0.0, 3.0]])
        pieces = _clip_near(tri, NEAR_MM)
        assert len(pieces) == 2
        pts = np.vstack(pieces)
        assert (pts[:, 2] >= NEAR_MM - 1e-12).all()
        # crossings of the two cut edges land at z = near
        assert any(np.allclose(p, [0.0, 0.0, 1.0]) for p in pts)
        assert any(np.allclose(p, [2.0, 0.0, 1.0]) for p in pts)

    def test_clip_keeps_front_triangle_unchanged(self):
        tri = np.array([[0.0, 0.0, 5.0], [1.0, 0.0, 6.0], [0.0, 1.0, 7.0]])
        pieces = _clip_near(tri, NEAR_MM)
        assert len(pieces) == 1
        assert np.array_equal(pieces[0], tri)

    def test_rendered_depth_never_below_near(self):
        gen = np.random.default_rng(37)
        cam = small_camera()
        for _ in range(5):
            verts = gen.uniform(-50, 50, (6, 3))
            verts[:, 2] = gen.uniform(-200, 400, 6)
            m = make_model(verts, [[0, 1, 2], [3, 4, 5]])
            out = render_distance_map(m, IDENTITY, cam)
            if out.visible.any():
                assert out.depth[out.visible].min() >= NEAR_MM - 1e-9


class TestProperties:
    def test_receding_object_never_gains_pixels(self):
        gen = np.random.default_rng(41)
        cam = small_camera()
        for _ in range(5):
            m = random_mesh(gen, span=30.0)
            base = random_pose(gen, z_range=(350.0, 500.0))
            counts = []
            for dz in (0.0, 150.0, 300.0, 600.0):
                pose = Pose(base.rotation, base.translation + np.array([0.0, 0.0, dz]))
                counts.append(int(render_distance_map(m, pose, cam).visible.sum()))
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_rendering_is_deterministic(self):
        gen = np.random.default_rng(43)
        m = random_mesh(gen)
        pose = random_pose(gen, z_range=(300.0, 800.0))
        a = render_distance_map(m, pose, small_camera())
        b = render_distance_map(m, pose, small_camera())
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.visible, b.visible)


class TestDistanceMapType:
    @pytest.mark.parametrize("shape, row0, col0", [
        ((4, 6), 0, 0), ((5, 5), 0, 0), ((2, 2), 3, 0), ((2, 2), 0, 4),
        ((1, 1), -1, 0), ((1, 1), 0, -1), ((20,), 0, 0),
    ])
    def test_box_must_fit_the_frame(self, shape, row0, col0):
        with pytest.raises(ValueError, match="does not fit"):
            DistanceMap(5, 4, np.zeros(shape), row0, col0)

    def test_box_is_placed_in_the_frame(self):
        dm = DistanceMap(5, 4, np.array([[700.0, 0.0]]), 3, 3)
        assert dm.box.flags.writeable is False
        assert dm.depth[3, 3] == 700.0 and dm.visible.sum() == 1 and dm.depth.shape == (4, 5)

    def test_from_depth(self):
        depth = np.zeros((4, 5))
        depth[1, 2] = 700.0
        dm = DistanceMap.from_depth(depth)
        assert dm.width == 5 and dm.height == 4
        assert dm.visible[1, 2] and dm.visible.sum() == 1

    def test_from_depth_leaves_the_callers_array_alone(self):
        depth = np.zeros((2, 3))
        dm = DistanceMap.from_depth(depth)
        depth[0, 0] = 1.0
        assert depth.flags.writeable and not dm.visible.any()


class TestPgm:
    def test_header_and_rounding(self, tmp_path):
        depth = np.zeros((2, 3))
        depth[0, 1] = 499.6
        depth[1, 2] = 1000.4
        path = tmp_path / "map.pgm"
        write_pgm(DistanceMap.from_depth(depth), path)
        lines = path.read_text(encoding="ascii").splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "3 2"
        assert lines[2] == "65535"
        grid = [int(v) for ln in lines[3:] for v in ln.split()]
        assert grid == [0, 500, 0, 0, 0, 1000]
