"""On-disk format tests: result CSV, ASCII PLY meshes, ground-truth JSON,
and object-table assembly."""

import json
import math

import numpy as np
import pytest

from fastpose.datio import (
    EstimateRecord,
    ObjectMeta,
    discover_meshes,
    load_object_models,
    parse_gt_json,
    parse_ply,
    parse_result_csv,
    serialize_result_csv,
    write_result_csv,
)
from fastpose.errors import (
    IndexOutOfRange,
    InvalidRotation,
    MalformedHeader,
    MalformedLine,
    SchemaViolation,
    UnsupportedFormat,
)
from fastpose.geom import Pose

from conftest import random_pose

HEADER = "scene_id,im_id,obj_id,score,R,t,time"
IDENTITY_LINE = "1,2,3,0.9,1 0 0 0 1 0 0 0 1,10 20 30,0.05"


def result_file(tmp_path, *lines):
    path = tmp_path / "results.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestResultCsvParsing:
    def test_identity_example_line(self, tmp_path):
        records = parse_result_csv(result_file(tmp_path, HEADER, IDENTITY_LINE))
        assert len(records) == 1
        rec = records[0]
        assert (rec.scene_id, rec.im_id, rec.obj_id) == (1, 2, 3)
        assert rec.score == 0.9
        assert rec.time_s == 0.05
        np.testing.assert_array_equal(rec.pose.rotation, np.eye(3))
        np.testing.assert_array_equal(rec.pose.translation, [10.0, 20.0, 30.0])

    def test_wrong_header_rejected(self, tmp_path):
        with pytest.raises(MalformedLine):
            parse_result_csv(result_file(tmp_path, "scene,im,obj", IDENTITY_LINE))

    def test_eight_rotation_values_rejected(self, tmp_path):
        line = "1,2,3,0.9,1 0 0 0 1 0 0 0,10 20 30,0.05"
        with pytest.raises(MalformedLine) as exc:
            parse_result_csv(result_file(tmp_path, HEADER, line))
        assert exc.value.line_no == 2

    def test_zero_rotation_matrix_rejected(self, tmp_path):
        line = "1,2,3,0.9,0 0 0 0 0 0 0 0 0,10 20 30,0.05"
        with pytest.raises(InvalidRotation):
            parse_result_csv(result_file(tmp_path, HEADER, line))

    def test_wrong_translation_count_rejected(self, tmp_path):
        line = "1,2,3,0.9,1 0 0 0 1 0 0 0 1,10 20,0.05"
        with pytest.raises(MalformedLine):
            parse_result_csv(result_file(tmp_path, HEADER, line))

    def test_wrong_field_count_rejected(self, tmp_path):
        with pytest.raises(MalformedLine):
            parse_result_csv(result_file(tmp_path, HEADER, "1,2,3,0.9"))

    def test_non_numeric_score_rejected(self, tmp_path):
        line = "1,2,3,high,1 0 0 0 1 0 0 0 1,10 20 30,0.05"
        with pytest.raises(MalformedLine):
            parse_result_csv(result_file(tmp_path, HEADER, line))

    @pytest.mark.parametrize("t", ["nan 20 30", "10 inf 30", "10 20 -inf"])
    def test_non_finite_translation_rejected(self, tmp_path, t):
        line = f"1,2,3,0.9,1 0 0 0 1 0 0 0 1,{t},0.05"
        with pytest.raises(MalformedLine) as exc:
            parse_result_csv(result_file(tmp_path, HEADER, IDENTITY_LINE, line))
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [3, 6], ids=["score", "time"])
    def test_non_finite_score_or_time_rejected(self, tmp_path, column, bad):
        fields = IDENTITY_LINE.split(",")
        fields[column] = bad
        with pytest.raises(MalformedLine) as exc:
            parse_result_csv(result_file(tmp_path, HEADER, IDENTITY_LINE, ",".join(fields)))
        assert exc.value.line_no == 3

    @pytest.mark.parametrize("nan_first", [True, False])
    def test_nan_score_duplicate_rejected_in_either_order(self, tmp_path, nan_first):
        # a NaN score would make "highest score wins" depend on the row order
        nan_line = IDENTITY_LINE.replace(",0.9,", ",nan,")
        rows = [nan_line, IDENTITY_LINE] if nan_first else [IDENTITY_LINE, nan_line]
        with pytest.raises(MalformedLine) as exc:
            parse_result_csv(result_file(tmp_path, HEADER, *rows))
        assert exc.value.line_no == (2 if nan_first else 3)

    def test_unknown_time_sentinel_accepted(self, tmp_path):
        line = "1,2,3,0.9,1 0 0 0 1 0 0 0 1,10 20 30,-1"
        assert parse_result_csv(result_file(tmp_path, HEADER, line))[0].time_s == -1.0

    def test_other_negative_time_rejected(self, tmp_path):
        line = "1,2,3,0.9,1 0 0 0 1 0 0 0 1,10 20 30,-0.5"
        with pytest.raises(MalformedLine):
            parse_result_csv(result_file(tmp_path, HEADER, line))

    def test_crlf_line_endings_accepted(self, tmp_path):
        path = tmp_path / "crlf.csv"
        path.write_bytes(f"{HEADER}\r\n{IDENTITY_LINE}\r\n".encode())
        assert parse_result_csv(path)[0].time_s == 0.05

    def test_blank_lines_skipped(self, tmp_path):
        records = parse_result_csv(
            result_file(tmp_path, HEADER, "", IDENTITY_LINE, "")
        )
        assert len(records) == 1


class TestResultCsvSerialization:
    def test_empty_list_gives_header_only(self):
        assert serialize_result_csv([]) == HEADER + "\n"

    def test_single_record_gives_two_lines(self):
        rec = EstimateRecord(1, 2, 3, 0.9, Pose.identity(), 0.05)
        lines = serialize_result_csv([rec]).splitlines()
        assert len(lines) == 2
        assert lines[0] == HEADER

    def test_roundtrip_is_lossless(self, tmp_path):
        gen = np.random.default_rng(5)
        records = [
            EstimateRecord(
                int(gen.integers(0, 50)),
                int(gen.integers(0, 50)),
                int(gen.integers(1, 20)),
                float(gen.uniform(0, 1)),
                random_pose(gen),
                float(gen.uniform(0, 2)),
            )
            for _ in range(20)
        ]
        path = tmp_path / "out.csv"
        write_result_csv(path, records)
        again = parse_result_csv(path)
        assert len(again) == len(records)
        for a, b in zip(records, again):
            assert (a.scene_id, a.im_id, a.obj_id) == (b.scene_id, b.im_id, b.obj_id)
            assert a.score == b.score
            assert a.time_s == b.time_s
            np.testing.assert_array_equal(a.pose.rotation, b.pose.rotation)
            np.testing.assert_array_equal(a.pose.translation, b.pose.translation)


TRIANGLE_PLY = """ply
format ascii 1.0
element vertex 3
property float x
property float y
property float z
element face 1
property list uchar int vertex_indices
end_header
0 0 0
1 0 0
0 1 0
3 0 1 2
"""

CUBE_VERTICES = [
    (x, y, z) for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)
]


def cube_ply() -> str:
    # Two triangles per cube face; winding is irrelevant to parsing.
    faces = [
        (0, 1, 3), (0, 3, 2), (4, 6, 7), (4, 7, 5),
        (0, 4, 5), (0, 5, 1), (2, 3, 7), (2, 7, 6),
        (0, 2, 6), (0, 6, 4), (1, 5, 7), (1, 7, 3),
    ]
    lines = [
        "ply", "format ascii 1.0",
        "element vertex 8",
        "property float x", "property float y", "property float z",
        "element face 12",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    lines += [f"{x:g} {y:g} {z:g}" for x, y, z in CUBE_VERTICES]
    lines += [f"3 {a} {b} {c}" for a, b, c in faces]
    return "\n".join(lines) + "\n"


def ply_file(tmp_path, text, name="mesh.ply"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestPlyParsing:
    def test_minimal_triangle(self, tmp_path):
        model = parse_ply(ply_file(tmp_path, TRIANGLE_PLY))
        np.testing.assert_array_equal(
            model.vertices, [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        )
        np.testing.assert_array_equal(model.triangles, [[0, 1, 2]])
        assert model.diameter == pytest.approx(math.sqrt(2.0))
        assert len(model.symmetries) == 1
        assert model.symmetries[0].is_identity()
        assert model.symmetric_flag is False

    def test_unit_cube_diameter(self, tmp_path):
        model = parse_ply(ply_file(tmp_path, cube_ply()))
        assert model.vertices.shape == (8, 3)
        assert model.triangles.shape == (12, 3)
        assert abs(model.diameter - math.sqrt(3.0)) < 1e-12

    def test_extra_vertex_properties_skipped_by_position(self, tmp_path):
        text = TRIANGLE_PLY.replace(
            "property float x",
            "property float nx\nproperty float x",
        ).replace("0 0 0\n1 0 0\n0 1 0", "9 0 0 0\n9 1 0 0\n9 0 1 0")
        model = parse_ply(ply_file(tmp_path, text))
        np.testing.assert_array_equal(
            model.vertices, [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
        )

    def test_comments_and_blank_header_lines_ignored(self, tmp_path):
        text = TRIANGLE_PLY.replace(
            "format ascii 1.0", "comment made by hand\nformat ascii 1.0\n"
        )
        parse_ply(ply_file(tmp_path, text))

    def test_zero_faces_allowed(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0 0 0\n1 1 1\n"
        )
        model = parse_ply(ply_file(tmp_path, text))
        assert model.triangles.shape == (0, 3)

    def test_vertex_index_out_of_range(self, tmp_path):
        with pytest.raises(IndexOutOfRange):
            parse_ply(ply_file(tmp_path, TRIANGLE_PLY.replace("3 0 1 2", "3 0 1 99")))

    def test_negative_vertex_index(self, tmp_path):
        with pytest.raises(IndexOutOfRange):
            parse_ply(ply_file(tmp_path, TRIANGLE_PLY.replace("3 0 1 2", "3 0 1 -1")))

    def test_binary_format_rejected(self, tmp_path):
        text = TRIANGLE_PLY.replace("ascii 1.0", "binary_little_endian 1.0")
        with pytest.raises(UnsupportedFormat):
            parse_ply(ply_file(tmp_path, text))

    def test_quad_face_rejected(self, tmp_path):
        text = TRIANGLE_PLY.replace("3 0 1 2", "4 0 1 2 0")
        with pytest.raises(UnsupportedFormat):
            parse_ply(ply_file(tmp_path, text))

    def test_list_vertex_property_rejected(self, tmp_path):
        text = TRIANGLE_PLY.replace(
            "property float x", "property list uchar float weights\nproperty float x"
        )
        with pytest.raises(UnsupportedFormat):
            parse_ply(ply_file(tmp_path, text))

    def test_missing_magic_rejected(self, tmp_path):
        with pytest.raises(MalformedHeader):
            parse_ply(ply_file(tmp_path, TRIANGLE_PLY.replace("ply\n", "plyx\n", 1)))

    def test_missing_end_header_rejected(self, tmp_path):
        text = TRIANGLE_PLY.replace("end_header\n", "")
        with pytest.raises(MalformedHeader):
            parse_ply(ply_file(tmp_path, text))

    def test_missing_format_rejected(self, tmp_path):
        text = TRIANGLE_PLY.replace("format ascii 1.0\n", "")
        with pytest.raises(MalformedHeader):
            parse_ply(ply_file(tmp_path, text))

    @pytest.mark.parametrize("old, new, line_no", [
        ("element vertex 3", "element vertex abc", 3),
        ("element vertex 3", "element vertex -3", 3),
        ("element face 1", "element face 1.5", 7),
    ], ids=["vertex-word", "vertex-negative", "face-fraction"])
    def test_bad_element_count_rejected(self, tmp_path, old, new, line_no):
        with pytest.raises(MalformedHeader, match=f"^line {line_no}: element count"):
            parse_ply(ply_file(tmp_path, TRIANGLE_PLY.replace(old, new)))

    def test_missing_z_property_rejected(self, tmp_path):
        text = TRIANGLE_PLY.replace("property float z\n", "")
        with pytest.raises(MalformedHeader):
            parse_ply(ply_file(tmp_path, text))

    def test_truncated_body_rejected(self, tmp_path):
        text = TRIANGLE_PLY.replace("3 0 1 2\n", "")
        with pytest.raises(MalformedLine):
            parse_ply(ply_file(tmp_path, text))

    def test_non_numeric_vertex_rejected(self, tmp_path):
        with pytest.raises(MalformedLine):
            parse_ply(ply_file(tmp_path, TRIANGLE_PLY.replace("1 0 0", "one 0 0")))


def minimal_gt_doc() -> dict:
    return {
        "instances": [
            {
                "scene_id": 1,
                "im_id": 4,
                "obj_id": 7,
                "cam_K": [500.0, 0.0, 320.0, 0.0, 550.0, 240.0, 0.0, 0.0, 1.0],
                "im_size": [640, 480],
                "cam_R_m2c": [1, 0, 0, 0, 1, 0, 0, 0, 1],
                "cam_t_m2c": [0.0, 0.0, 1000.0],
            }
        ],
        "objects": {"7": {}},
    }


def gt_file(tmp_path, doc):
    path = tmp_path / "gt.json"
    path.write_text(json.dumps(doc))
    return path


class TestGroundTruthJson:
    def test_minimal_document(self, tmp_path):
        records, objects = parse_gt_json(gt_file(tmp_path, minimal_gt_doc()))
        assert len(records) == 1
        rec = records[0]
        assert (rec.scene_id, rec.im_id, rec.obj_id) == (1, 4, 7)
        assert (rec.camera.fx, rec.camera.fy) == (500.0, 550.0)
        assert (rec.camera.cx, rec.camera.cy) == (320.0, 240.0)
        assert (rec.camera.width, rec.camera.height) == (640, 480)
        np.testing.assert_array_equal(rec.pose.translation, [0, 0, 1000])
        assert objects == {7: ObjectMeta()}

    def test_object_metadata_parsed(self, tmp_path):
        doc = minimal_gt_doc()
        rot_z180 = [-1.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 1.0]
        doc["objects"]["7"] = {
            "diameter": 52.5,
            "symmetric": True,
            "symmetries": [
                [rot_z180[0], rot_z180[1], rot_z180[2], 0.0,
                 rot_z180[3], rot_z180[4], rot_z180[5], 0.0,
                 rot_z180[6], rot_z180[7], rot_z180[8], 0.0]
            ],
        }
        _, objects = parse_gt_json(gt_file(tmp_path, doc))
        meta = objects[7]
        assert meta.diameter == 52.5
        assert meta.symmetric is True
        assert len(meta.symmetries) == 1
        np.testing.assert_array_equal(
            meta.symmetries[0].rotation, np.array(rot_z180).reshape(3, 3)
        )
        np.testing.assert_array_equal(meta.symmetries[0].translation, [0, 0, 0])

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "gt.json"
        path.write_text("{not json")
        with pytest.raises(SchemaViolation):
            parse_gt_json(path)

    def test_missing_cam_k_rejected(self, tmp_path):
        doc = minimal_gt_doc()
        del doc["instances"][0]["cam_K"]
        with pytest.raises(SchemaViolation) as exc:
            parse_gt_json(gt_file(tmp_path, doc))
        assert "cam_K" in str(exc.value)
        assert "$.instances[0]" in str(exc.value)

    def test_nested_cam_k_rejected(self, tmp_path):
        # The camera matrix must be a flat list of 9 numbers.
        doc = minimal_gt_doc()
        k = doc["instances"][0]["cam_K"]
        doc["instances"][0]["cam_K"] = [k[0:3], k[3:6], k[6:9]]
        with pytest.raises(SchemaViolation):
            parse_gt_json(gt_file(tmp_path, doc))

    def test_non_upper_triangular_cam_k_rejected(self, tmp_path):
        doc = minimal_gt_doc()
        doc["instances"][0]["cam_K"][3] = 2.0
        with pytest.raises(SchemaViolation):
            parse_gt_json(gt_file(tmp_path, doc))

    def test_non_positive_focal_rejected(self, tmp_path):
        doc = minimal_gt_doc()
        doc["instances"][0]["cam_K"][0] = 0.0
        with pytest.raises(SchemaViolation):
            parse_gt_json(gt_file(tmp_path, doc))

    def test_instance_without_object_entry_rejected(self, tmp_path):
        doc = minimal_gt_doc()
        doc["instances"][0]["obj_id"] = 99
        with pytest.raises(SchemaViolation):
            parse_gt_json(gt_file(tmp_path, doc))

    def test_missing_top_level_keys_rejected(self, tmp_path):
        with pytest.raises(SchemaViolation):
            parse_gt_json(gt_file(tmp_path, {"instances": []}))
        with pytest.raises(SchemaViolation):
            parse_gt_json(gt_file(tmp_path, {"objects": {}}))

    def test_non_integer_object_key_rejected(self, tmp_path):
        doc = minimal_gt_doc()
        doc["objects"]["seven"] = {}
        with pytest.raises(SchemaViolation):
            parse_gt_json(gt_file(tmp_path, doc))

    def test_non_positive_diameter_rejected(self, tmp_path):
        doc = minimal_gt_doc()
        doc["objects"]["7"]["diameter"] = -3.0
        with pytest.raises(SchemaViolation):
            parse_gt_json(gt_file(tmp_path, doc))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_diameter_rejected(self, tmp_path, bad):
        doc = minimal_gt_doc()
        doc["objects"]["7"]["diameter"] = bad
        with pytest.raises(SchemaViolation) as exc:
            parse_gt_json(gt_file(tmp_path, doc))
        assert exc.value.path == "$.objects.7.diameter"

    def test_short_symmetry_rejected(self, tmp_path):
        doc = minimal_gt_doc()
        doc["objects"]["7"]["symmetries"] = [[1, 0, 0, 0, 1, 0, 0, 0, 1]]
        with pytest.raises(SchemaViolation):
            parse_gt_json(gt_file(tmp_path, doc))

    @pytest.mark.parametrize("place, path", [
        ("instance", "$.instances[0].cam_t_m2c"),
        ("symmetry", "$.objects.7.symmetries[0]"),
    ])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_translation_rejected(self, tmp_path, place, path, bad):
        doc = minimal_gt_doc()
        if place == "instance":
            doc["instances"][0]["cam_t_m2c"] = [0.0, bad, 1000.0]
        else:
            doc["objects"]["7"]["symmetries"] = [[1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, bad]]
        with pytest.raises(SchemaViolation) as exc:
            parse_gt_json(gt_file(tmp_path, doc))
        assert exc.value.path == path

    def test_non_orthonormal_symmetry_rejected(self, tmp_path):
        doc = minimal_gt_doc()
        doc["objects"]["7"]["symmetries"] = [
            [2.0, 0, 0, 0, 0, 2.0, 0, 0, 0, 0, 2.0, 0]
        ]
        with pytest.raises(InvalidRotation):
            parse_gt_json(gt_file(tmp_path, doc))

    def test_bad_rotation_in_instance_rejected(self, tmp_path):
        doc = minimal_gt_doc()
        doc["instances"][0]["cam_R_m2c"] = [0] * 9
        with pytest.raises(InvalidRotation):
            parse_gt_json(gt_file(tmp_path, doc))


class TestApplyObjectMeta:
    """gt.json object metadata, as parse_ply(path, meta) applies it."""

    def model(self, tmp_path, meta):
        return parse_ply(ply_file(tmp_path, cube_ply()), meta)

    def test_identity_prepended_when_missing(self, tmp_path):
        rot = np.array([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], dtype=float)
        meta = ObjectMeta(symmetries=(Pose(rot, np.zeros(3)),))
        combined = self.model(tmp_path, meta)
        assert len(combined.symmetries) == 2
        assert combined.symmetries[0].is_identity()

    def test_identity_not_duplicated(self, tmp_path):
        meta = ObjectMeta(symmetries=(Pose.identity(),))
        combined = self.model(tmp_path, meta)
        assert len(combined.symmetries) == 1

    def test_stated_diameter_within_tolerance_is_kept(self, tmp_path):
        # The metadata diameter is a cross-check against the mesh; an
        # agreeing value is recorded verbatim.
        stated = 1.7320508
        combined = self.model(tmp_path, ObjectMeta(diameter=stated))
        assert combined.diameter == stated

    def test_disagreeing_diameter_rejected(self, tmp_path):
        with pytest.raises(SchemaViolation):
            self.model(tmp_path, ObjectMeta(diameter=9.0))

    def test_computed_diameter_kept_without_override(self, tmp_path):
        combined = self.model(tmp_path, ObjectMeta())
        assert abs(combined.diameter - math.sqrt(3.0)) < 1e-12

    def test_symmetric_flag_carried(self, tmp_path):
        assert self.model(tmp_path, ObjectMeta(symmetric=True)).symmetric_flag

    def test_invalid_override_becomes_schema_violation(self, tmp_path):
        with pytest.raises(SchemaViolation):
            self.model(tmp_path, ObjectMeta(diameter=-1.0))


class TestMeshDiscovery:
    def test_trailing_digits_name_objects(self, tmp_path):
        (tmp_path / "obj_000003.ply").write_text(TRIANGLE_PLY)
        (tmp_path / "cube7.ply").write_text(TRIANGLE_PLY)
        (tmp_path / "noid.ply").write_text(TRIANGLE_PLY)
        (tmp_path / "readme.txt").write_text("not a mesh")
        found = discover_meshes(tmp_path)
        assert sorted(found) == [3, 7]
        assert found[3].name == "obj_000003.ply"

    def test_load_object_models_applies_metadata(self, tmp_path):
        (tmp_path / "obj_000001.ply").write_text(cube_ply())
        models = load_object_models(tmp_path, {1: ObjectMeta(diameter=1.7320508)})
        assert models[1].diameter == 1.7320508
        assert models[1].symmetries[0].is_identity()

    def test_load_object_models_computes_each_diameter_once(self, tmp_path, diameter_calls):
        (tmp_path / "obj_000001.ply").write_text(cube_ply())
        (tmp_path / "obj_000002.ply").write_text(TRIANGLE_PLY)
        load_object_models(tmp_path, {1: ObjectMeta(diameter=1.7320508), 2: ObjectMeta(symmetric=True)})
        assert sorted(diameter_calls) == [3, 8]

    def test_parse_ply_applies_metadata(self, tmp_path):
        path = ply_file(tmp_path, cube_ply())
        rot = np.array([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], dtype=float)
        model = parse_ply(path, ObjectMeta(1.7320508, True, (Pose(rot, np.zeros(3)),)))
        assert (model.diameter, model.symmetric_flag, len(model.symmetries)) == (1.7320508, True, 2)
        with pytest.raises(SchemaViolation) as exc:
            parse_ply(path, ObjectMeta(diameter=9.0), where="$.objects.3")
        assert exc.value.path == "$.objects.3"

    def test_load_object_models_missing_mesh(self, tmp_path):
        (tmp_path / "obj_000001.ply").write_text(cube_ply())
        with pytest.raises(FileNotFoundError):
            load_object_models(tmp_path, {2: ObjectMeta()})
