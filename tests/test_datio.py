"""On-disk format tests: result CSV, ASCII PLY meshes, ground-truth JSON,
and object-table assembly."""

import json
import math
import sys

import numpy as np
import pytest

import oracles
from fastpose import datio, geom
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
    FastposeError,
    IndexOutOfRange,
    InvalidRotation,
    MalformedHeader,
    MalformedLine,
    SchemaViolation,
    UnsupportedFormat,
)
from fastpose.geom import Pose, is_rotation

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

    def test_non_rotation_names_its_line(self, tmp_path):
        line = "1,1,2,1,1 0 0 0 1 0 0 0 2,0 0 300,-1"
        with pytest.raises(InvalidRotation) as exc:
            parse_result_csv(result_file(tmp_path, HEADER, IDENTITY_LINE, "", line))
        assert str(exc.value) == "line 4: R: rotation is not orthonormal with det +1 within 1e-6"

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

    def test_header_error_names_the_header_line(self, tmp_path):
        path = result_file(tmp_path, "", "", HEADER.replace(",time", ""), IDENTITY_LINE)
        with pytest.raises(MalformedLine, match="header must be exactly") as exc:
            parse_result_csv(path)
        assert exc.value.line_no == 3


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
        assert np.array_equal(model.symmetries, [np.eye(3, 4)])
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

    @pytest.mark.parametrize("face, found", [("3 0 1", 2), ("3 0 1 2 7", 4), ("3", 0)])
    def test_triangle_face_with_the_wrong_index_count_is_malformed(self, tmp_path, face, found):
        with pytest.raises(MalformedLine, match=f"3 vertex indices, got {found}$") as exc:
            parse_ply(ply_file(tmp_path, TRIANGLE_PLY.replace("3 0 1 2", face)))
        assert exc.value.line_no == 13

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

    @pytest.mark.parametrize("coord", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_vertex_rejected_with_its_line(self, tmp_path, coord):
        with pytest.raises(MalformedLine) as exc:
            parse_ply(ply_file(tmp_path, TRIANGLE_PLY.replace("1 0 0", f"1 {coord} 0")))
        assert exc.value.line_no == 11
        assert "finite" in exc.value.reason


    def test_vertex_line_with_an_undeclared_value_rejected(self, tmp_path):
        with pytest.raises(MalformedLine, match="vertex needs 3 values, got 4") as exc:
            parse_ply(ply_file(tmp_path, TRIANGLE_PLY.replace("0 0 0\n", "0 0 0 7\n", 1)))
        assert exc.value.line_no == 10

    def test_non_numeric_extra_vertex_property_rejected(self, tmp_path):
        text = TRIANGLE_PLY.replace("property float z", "property float z\nproperty uchar red")
        text = text.replace("0 0 0\n1 0 0\n0 1 0", "0 0 0 1\n1 0 0 red\n0 1 0 3")
        with pytest.raises(MalformedLine) as exc:
            parse_ply(ply_file(tmp_path, text))
        assert exc.value.line_no == 12

    def test_face_element_declared_first_is_read_in_header_order(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement face 1\nproperty list uchar int vertex_indices\n"
            "element vertex 3\nproperty float x\nproperty float y\nproperty float z\nend_header\n"
            "3 0 1 2\n0 0 0\n1 0 0\n0 1 0\n"
        )
        model = parse_ply(ply_file(tmp_path, text))
        np.testing.assert_array_equal(model.vertices, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        np.testing.assert_array_equal(model.triangles, [[0, 1, 2]])

    @pytest.mark.parametrize("element, line_no", [("vertex", 7), ("face", 9)])
    def test_repeated_element_declaration_rejected(self, tmp_path, element, line_no):
        if element == "vertex":
            text = TRIANGLE_PLY.replace("element face 1", "element vertex 2\nproperty float w\nelement face 1")
        else:
            text = TRIANGLE_PLY.replace("end_header", "element face 0\nproperty list uchar int vertex_indices\nend_header")
        with pytest.raises(MalformedHeader, match=f"^line {line_no}: element '{element}' is declared twice"):
            parse_ply(ply_file(tmp_path, text))

    @pytest.mark.parametrize("repeated", ["x", "z", "red"])
    def test_repeated_vertex_property_rejected(self, tmp_path, repeated):
        # a later column of the same name would otherwise be read silently: `1 2 3 4` as x = 4
        text = TRIANGLE_PLY.replace("property float z",
                                    f"property float z\nproperty uchar red\nproperty float {repeated}")
        text = text.replace("0 0 0\n1 0 0\n0 1 0", "1 2 3 0 4\n1 0 0 0 1\n0 1 0 0 0")
        with pytest.raises(MalformedHeader, match=f"^line 8: vertex property '{repeated}' is declared twice"):
            parse_ply(ply_file(tmp_path, text))

    @pytest.mark.parametrize("old, new, line_no", [
        ("property float y", "property", 5),
        ("property float y", "property float", 5),
        ("property float y", "property y", 5),
        ("property float y", "property float y extra", 5),
        ("property list uchar int vertex_indices", "property", 8),
        ("property list uchar int vertex_indices", "property list", 8),
        ("property list uchar int vertex_indices", "property list uchar vertex_indices", 8),
        ("property list uchar int vertex_indices", "property list uchar int int vertex_indices", 8),
    ], ids=["vertex-bare", "vertex-type-only", "vertex-name-only", "vertex-extra", "face-bare", "face-list-only",
            "face-one-type", "face-three-types"])
    def test_property_with_the_wrong_token_count_is_malformed(self, tmp_path, old, new, line_no):
        with pytest.raises(MalformedHeader, match=f"^line {line_no}: malformed property declaration"):
            parse_ply(ply_file(tmp_path, TRIANGLE_PLY.replace(old, new)))

    @pytest.mark.parametrize("face_property", ["property list uchar int colours", "property uchar red"])
    def test_well_formed_face_property_other_than_the_indices_is_unsupported(self, tmp_path, face_property):
        text = TRIANGLE_PLY.replace("property list uchar int vertex_indices", face_property)
        with pytest.raises(UnsupportedFormat):
            parse_ply(ply_file(tmp_path, text))

    def test_index_beyond_int64_names_its_line(self, tmp_path):
        with pytest.raises(IndexOutOfRange, match="^line 13: "):
            parse_ply(ply_file(tmp_path, TRIANGLE_PLY.replace("3 0 1 2", "3 0 1 " + "9" * 30)))


def styled_number(gen, value: float) -> str:
    """One of the spellings float() reads: fixed, repr, exponent, signed zero, explicit plus."""
    style = int(gen.integers(6))
    return [f"{value:.4f}", repr(float(value)), f"{value:.6e}", "-0", "+1", f"+{abs(value):.3f}"][style]


def styled_ply(gen, n_vertices: int, n_faces: int, *, extra: bool, crlf: bool) -> str:
    """A well-formed PLY with mixed number spellings and whitespace (tabs, runs of spaces)."""
    props = ["x", "y", "z"]
    if extra:
        props = ["nx", "x", "y", "red", "z"]
    head = ["ply", "format ascii 1.0", f"element vertex {n_vertices}"]
    head += [f"property float {p}" for p in props]
    if n_faces:
        head += [f"element face {n_faces}", "property list uchar int vertex_indices"]
    head.append("end_header")
    seps = [" ", "\t", "   ", " \t "]

    def line(tokens):
        gaps = [seps[int(gen.integers(len(seps)))] for _ in tokens]
        lead = " " if gen.random() < 0.2 else ""
        return lead + "".join(t + g for t, g in zip(tokens, gaps)).rstrip(" \t") + ("\t" if gen.random() < 0.2 else "")

    body = [line([styled_number(gen, v) for v in gen.uniform(-80.0, 80.0, len(props))]) for _ in range(n_vertices)]
    for _ in range(n_faces):
        idx = gen.integers(0, n_vertices, 3)
        body.append(line(["3"] + [("+" if gen.random() < 0.2 else "") + str(i) for i in idx]))
    end = "\r\n" if crlf else "\n"
    return end.join(head + body) + end


class TestPlyArrayBody:
    """The body is parsed an element at a time as arrays; the per-line rules run
    only to name a failing line."""

    @pytest.mark.parametrize("n_vertices, n_faces", [(0, 0), (1, 0), (7, 0), (40, 60), (300, 500)])
    @pytest.mark.parametrize("extra", [False, True], ids=["xyz", "extra-props"])
    @pytest.mark.parametrize("crlf", [False, True], ids=["lf", "crlf"])
    @pytest.mark.parametrize("chunk", [None, 7], ids=["chunk-default", "chunk-7"])
    def test_array_body_equals_the_line_loop(self, tmp_path, monkeypatch, n_vertices, n_faces, extra, crlf, chunk):
        if chunk:
            monkeypatch.setattr(datio, "_PLY_CHUNK_LINES", chunk)
        gen = np.random.default_rng(n_vertices * 7 + n_faces + 2 * extra + crlf)
        path = tmp_path / "styled.ply"
        path.write_bytes(styled_ply(gen, n_vertices, n_faces, extra=extra, crlf=crlf).encode())
        vertices, triangles = oracles.ply_loop(path)
        model = parse_ply(path, ObjectMeta(diameter=0.0) if n_vertices == 0 else None)
        assert model.vertices.tobytes() == vertices.tobytes()  # bytes: -0.0 stays -0.0
        assert model.triangles.tobytes() == triangles.tobytes()

    def test_line_rules_do_not_run_on_a_valid_file(self, tmp_path, monkeypatch):
        def forbidden(*args):
            raise AssertionError("per-line rules ran on a valid file")
        monkeypatch.setattr(datio, "_vertex_line", forbidden)
        monkeypatch.setattr(datio, "_face_line", forbidden)
        model = parse_ply(ply_file(tmp_path, cube_ply()))
        assert model.triangles.shape == (12, 3)
        path = tmp_path / "styled.ply"  # mixed spellings the C reader reads, without underscores
        path.write_bytes(styled_ply(np.random.default_rng(5), 300, 500, extra=True, crlf=True).encode())
        vertices, triangles = oracles.ply_loop(path)
        model = parse_ply(path)
        assert model.vertices.tobytes() == vertices.tobytes()
        assert model.triangles.tobytes() == triangles.tobytes()

    # Spellings around the C reader's edge, each on a line of a middle 3-line
    # chunk: vertex line 14 ("1 0 0") or face line 22 ("3 0 4 5") of the cube.
    @pytest.mark.parametrize("old, new, error, line_no", [
        ("1 0 0\n", "1_0 0 0\n", None, None),
        ("3 0 4 5\n", "3 0 4 0_5\n", None, None),
        ("1 0 0\n", "\u0661 0 0\n", None, None),
        ("3 0 4 5\n", "3 0 \u0664 5\n", None, None),
        ("1 0 0\n", "1\xa00\xa00\n", None, None),
        ("3 0 4 5\n", "3\xa00 4\xa05\n", None, None),
        ("3 0 4 5\n", "3 0 4 5.0\n", MalformedLine, 22),
        ("1 0 0\n", "1e400 0 0\n", MalformedLine, 14),
        ("1 0 0\n", "1 nan 0\n", MalformedLine, 14),
        ("1 0 0\n", "1 0 0 # c\n", MalformedLine, 14),
        ("1 0 0\n", " \t \n", MalformedLine, 14),
        ("3 0 4 5\n", "3 0 4 " + "9" * 30 + "\n", IndexOutOfRange, 22),
    ], ids=["underscore-vertex", "underscore-face", "arabic-indic-vertex", "arabic-indic-face", "nbsp-vertex",
            "nbsp-face", "float-index", "overflow", "nan", "trailing-comment", "blank-line", "index-beyond-int64"])
    def test_spellings_between_chunks_match_the_line_loop(self, tmp_path, monkeypatch, old, new, error, line_no):
        monkeypatch.setattr(datio, "_PLY_CHUNK_LINES", 3)
        text = cube_ply().replace(old, new, 1)
        assert text != cube_ply()
        path = tmp_path / "mesh.ply"
        path.write_bytes(text.encode())
        if error is None:
            vertices, triangles = oracles.ply_loop(path)
            model = parse_ply(path)
            assert model.vertices.tobytes() == vertices.tobytes()
            assert model.triangles.tobytes() == triangles.tobytes()
        else:
            with pytest.raises(error) as exc:
                parse_ply(path)
            assert getattr(exc.value, "line_no", None) == line_no or str(exc.value).startswith(f"line {line_no}:")

    @pytest.mark.parametrize("n_vertices, n_faces", [(0, 0), (8, 0)])
    def test_empty_elements_between_chunks_match_the_line_loop(self, tmp_path, monkeypatch, n_vertices, n_faces):
        monkeypatch.setattr(datio, "_PLY_CHUNK_LINES", 3)
        head, body = cube_ply().split("end_header\n")
        head = head.replace("element vertex 8", f"element vertex {n_vertices}")
        head = head.replace("element face 12", f"element face {n_faces}")
        path = tmp_path / "mesh.ply"
        path.write_bytes((head + "end_header\n" + "".join(body.splitlines(True)[:n_vertices])).encode())
        vertices, triangles = oracles.ply_loop(path)
        model = parse_ply(path, ObjectMeta(diameter=0.0) if n_vertices == 0 else None)
        assert model.vertices.tobytes() == vertices.tobytes()
        assert model.triangles.tobytes() == triangles.tobytes()

    @pytest.mark.parametrize("old, new, error, line_no", [
        ("0 1 1", "0 1", MalformedLine, 13),
        ("1 1 0", "1 x 0", MalformedLine, 16),
        ("1 1 1", "1 1 nan", MalformedLine, 17),
        ("3 0 6 4", "3 0 6 8", IndexOutOfRange, 27),
        ("3 1 7 3", "4 1 7 3 0", UnsupportedFormat, 29),
        ("3 2 7 6", "3 2 7 six", MalformedLine, 25),
    ])
    def test_errors_in_later_chunks_name_their_line(self, tmp_path, monkeypatch, old, new, error, line_no):
        monkeypatch.setattr(datio, "_PLY_CHUNK_LINES", 3)
        text = cube_ply().replace(old, new)
        assert text != cube_ply()
        with pytest.raises(error) as exc:
            parse_ply(ply_file(tmp_path, text))
        assert getattr(exc.value, "line_no", None) == line_no or str(exc.value).startswith(f"line {line_no}:")

    def test_one_value_on_every_line_rejected(self, tmp_path):
        # an (n, 1) token array would broadcast into the (n, 3) rows without the count check
        with pytest.raises(MalformedLine, match="vertex needs 3 values, got 1") as exc:
            parse_ply(ply_file(tmp_path, TRIANGLE_PLY.replace("0 0 0\n1 0 0\n0 1 0", "0\n1\n2")))
        assert exc.value.line_no == 10

    def test_first_failing_line_wins_across_elements(self, tmp_path):
        text = cube_ply().replace("1 1 1\n", "1 1 one\n").replace("3 0 1 3\n", "3 0 1 99\n")
        with pytest.raises(MalformedLine) as exc:
            parse_ply(ply_file(tmp_path, text))
        assert exc.value.line_no == 17

    def test_first_failing_line_wins_over_a_later_unreadable_chunk(self, tmp_path, monkeypatch):
        # line 18's index is read by the C reader; line 25's chunk is refused, so the rules re-read from line 18
        monkeypatch.setattr(datio, "_PLY_CHUNK_LINES", 3)
        text = cube_ply().replace("3 0 1 3\n", "3 0 1 99\n").replace("3 2 7 6\n", "3 2 7 six\n")
        with pytest.raises(IndexOutOfRange, match="line 18:"):
            parse_ply(ply_file(tmp_path, text))

    def test_first_failing_line_wins_in_a_face_first_file(self, tmp_path):
        text = (
            "ply\nformat ascii 1.0\nelement face 2\nproperty list uchar int vertex_indices\n"
            "element vertex 3\nproperty float x\nproperty float y\nproperty float z\nend_header\n"
            "3 0 1 2\n3 0 1 9\n0 0 0\n1 0 zero\n0 1 0\n"
        )
        with pytest.raises(IndexOutOfRange, match="line 11:"):
            parse_ply(ply_file(tmp_path, text))


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


def load_gt_models(tmp_path, doc):
    """The models of `doc`'s objects, each a unit cube, as parse_gt_json and load_object_models build them."""
    mesh_dir = tmp_path / "meshes"
    mesh_dir.mkdir()
    for key in doc["objects"]:
        (mesh_dir / f"obj_{int(key):06d}.ply").write_text(cube_ply())
    _, objects = parse_gt_json(gt_file(tmp_path, doc))
    return load_object_models(mesh_dir, objects)


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
        assert list(objects) == [7]
        meta = objects[7]
        assert (meta.diameter, meta.symmetric, meta.symmetries.shape) == (None, False, (0, 3, 4))

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
        assert meta.symmetries.shape == (1, 3, 4)
        np.testing.assert_array_equal(
            meta.symmetries[0, :, :3], np.array(rot_z180).reshape(3, 3)
        )
        np.testing.assert_array_equal(meta.symmetries[0, :, 3], [0, 0, 0])

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

    @pytest.mark.parametrize("index, entry", [
        (2, float("nan")), (5, float("inf")), (0, float("-inf")), (0, "500"), (8, True), (2, None), (5, 10**400),
    ])
    def test_cam_k_entry_that_is_not_a_finite_number_rejected(self, tmp_path, index, entry):
        doc = minimal_gt_doc()
        doc["instances"][0]["cam_K"][index] = entry
        with pytest.raises(SchemaViolation) as exc:
            parse_gt_json(gt_file(tmp_path, doc))
        assert exc.value.path == "$.instances[0].cam_K"

    def test_integer_cam_k_entries_accepted(self, tmp_path):
        doc = minimal_gt_doc()
        doc["instances"][0]["cam_K"] = [500, 0, 320, 0, 550, 240, 0, 0, 1]
        records, _ = parse_gt_json(gt_file(tmp_path, doc))
        assert (records[0].camera.fx, records[0].camera.cx) == (500.0, 320.0)

    @pytest.mark.parametrize("im_size", [
        [0, 480], [640, -1], [640.5, 480], [640.0, 480], [640, "480"], [True, 480], [640, float("nan")],
        [640], [640, 480, 3], "640x480",
    ])
    def test_im_size_that_is_not_two_positive_integers_rejected(self, tmp_path, im_size):
        doc = minimal_gt_doc()
        doc["instances"][0]["im_size"] = im_size
        with pytest.raises(SchemaViolation) as exc:
            parse_gt_json(gt_file(tmp_path, doc))
        assert exc.value.path == "$.instances[0].im_size"

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

    @pytest.mark.parametrize("key", ["07", " 7", "7 ", "7_0", "+7"])
    def test_non_canonical_object_key_rejected(self, tmp_path, key):
        doc = minimal_gt_doc()
        doc["objects"][key] = {"symmetric": True}
        with pytest.raises(SchemaViolation) as exc:
            parse_gt_json(gt_file(tmp_path, doc))
        assert exc.value.path == f"$.objects.{key}"

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None, [], {}])
    def test_symmetric_must_be_a_json_boolean(self, tmp_path, flag):
        doc = minimal_gt_doc()
        doc["objects"]["7"]["symmetric"] = flag
        with pytest.raises(SchemaViolation) as exc:
            parse_gt_json(gt_file(tmp_path, doc))
        assert exc.value.path == "$.objects.7.symmetric"

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

    @pytest.mark.parametrize("place, path", [
        ("cam_R_m2c", "$.instances[0].cam_R_m2c"),
        ("cam_t_m2c", "$.instances[0].cam_t_m2c"),
        ("diameter", "$.objects.7.diameter"),
        ("symmetries", "$.objects.7.symmetries[1]"),
    ])
    # 10**400 overflows a float64; the other rounds to float64's max without overflowing
    @pytest.mark.parametrize("huge", [10**400, int(sys.float_info.max) + 2**969])
    def test_integer_beyond_float64_range_rejected(self, tmp_path, place, path, huge):
        doc = minimal_gt_doc()
        if place == "diameter":
            doc["objects"]["7"]["diameter"] = huge
        elif place == "symmetries":
            identity = [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0]
            doc["objects"]["7"]["symmetries"] = [identity, identity[:11] + [huge]]
        else:
            doc["instances"][0][place][0] = huge
        with pytest.raises(SchemaViolation) as exc:
            parse_gt_json(gt_file(tmp_path, doc))
        assert exc.value.path == path

    def test_string_in_rotation_rejected(self, tmp_path):
        doc = minimal_gt_doc()
        doc["instances"][0]["cam_R_m2c"][4] = "x"
        with pytest.raises(SchemaViolation) as exc:
            parse_gt_json(gt_file(tmp_path, doc))
        assert exc.value.path == "$.instances[0].cam_R_m2c"

    @pytest.mark.parametrize("entry", ["5", True])
    def test_translation_entry_that_is_not_a_number_rejected(self, tmp_path, entry):
        doc = minimal_gt_doc()
        doc["instances"][0]["cam_t_m2c"][1] = entry
        with pytest.raises(SchemaViolation) as exc:
            parse_gt_json(gt_file(tmp_path, doc))
        assert exc.value.path == "$.instances[0].cam_t_m2c"

    def test_boolean_diameter_rejected(self, tmp_path):
        doc = minimal_gt_doc()
        doc["objects"]["7"]["diameter"] = True
        with pytest.raises(SchemaViolation) as exc:
            parse_gt_json(gt_file(tmp_path, doc))
        assert exc.value.path == "$.objects.7.diameter"

    @pytest.mark.parametrize("key", ["scene_id", "im_id", "obj_id"])
    @pytest.mark.parametrize("flag", [True, False])
    def test_boolean_id_rejected(self, tmp_path, key, flag):
        doc = minimal_gt_doc()
        doc["objects"]["1"] = doc["objects"]["0"] = {}  # so a bool obj_id would find an entry
        doc["instances"][0][key] = flag
        with pytest.raises(SchemaViolation) as exc:
            parse_gt_json(gt_file(tmp_path, doc))
        assert exc.value.path == f"$.instances[0].{key}"

    def test_string_in_symmetry_names_its_row(self, tmp_path):
        doc = minimal_gt_doc()
        identity = [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0]
        doc["objects"]["7"]["symmetries"] = [identity, identity, identity[:5] + ["1"] + identity[6:]]
        with pytest.raises(SchemaViolation) as exc:
            parse_gt_json(gt_file(tmp_path, doc))
        assert exc.value.path == "$.objects.7.symmetries[2]"

    def test_non_orthonormal_symmetry_rejected(self, tmp_path):
        doc = minimal_gt_doc()
        doc["objects"]["7"]["symmetries"] = [
            [2.0, 0, 0, 0, 0, 2.0, 0, 0, 0, 0, 2.0, 0]
        ]
        with pytest.raises(InvalidRotation):
            load_gt_models(tmp_path, doc)

    def test_invalid_rotation_names_the_first_bad_symmetry(self, tmp_path):
        doc = minimal_gt_doc()
        rot_z180 = [-1.0, 0, 0, 0, 0, -1.0, 0, 0, 0, 0, 1.0, 0]
        skewed = [1.0, 0.1, 0, 0, 0, 1.0, 0, 0, 0, 0, 1.0, 0]
        doc["objects"]["7"]["symmetries"] = [rot_z180, skewed, skewed]
        with pytest.raises(InvalidRotation) as exc:
            load_gt_models(tmp_path, doc)
        assert str(exc.value).startswith("$.objects.7.symmetries[1]: ")

    def test_each_symmetry_table_is_rotation_checked_once(self, tmp_path, monkeypatch):
        rows_checked = []

        def counted(matrix, *args):
            rows_checked.append(len(matrix))
            return is_rotation(matrix, *args)

        monkeypatch.setattr(datio, "is_rotation", counted)
        monkeypatch.setattr(geom, "is_rotation", counted)
        identity = [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0]
        rot_z180 = [-1, 0, 0, 0, 0, -1, 0, 0, 0, 0, 1, 0]
        rot_x180 = [1, 0, 0, 0, 0, -1, 0, 0, 0, 0, -1, 0]
        doc = {"instances": [], "objects": {"3": {"symmetries": [identity, rot_z180]},
                                            "5": {"symmetries": [identity, rot_x180, rot_z180]}}}
        models = load_gt_models(tmp_path, doc)
        assert [len(models[3].symmetries), len(models[5].symmetries)] == rows_checked == [2, 3]

    def test_first_non_finite_symmetry_is_named(self, tmp_path):
        doc = minimal_gt_doc()
        rot_z180 = [-1.0, 0, 0, 0, 0, -1.0, 0, 0, 0, 0, 1.0, 0]
        doc["objects"]["7"]["symmetries"] = [rot_z180, rot_z180, [float("nan")] * 12, [2.0] * 12]
        with pytest.raises(SchemaViolation) as exc:
            parse_gt_json(gt_file(tmp_path, doc))
        assert exc.value.path == "$.objects.7.symmetries[2]"

    @pytest.mark.parametrize("row", [
        *([1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, value] for value in [
            True, "1", None, 10**400, int(sys.float_info.max) + 2**969, int(sys.float_info.max),
            sys.float_info.max, -sys.float_info.max, float("nan"), float("inf"), float("-inf"),
            "NEG_ZERO", -0.0, 10**30, 5, 0.5]),
        [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0], 7, "row", {}, [],
    ], ids=repr)
    def test_array_checked_rows_agree_with_the_per_number_rule(self, tmp_path, row):
        """A symmetry table is accepted exactly when every row is a list of 12
        numbers finite as float64s (datio._finite_number), and rejected at the
        first row that is not, with that rule's reason."""
        identity = [1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0]
        doc = minimal_gt_doc()
        doc["objects"]["7"]["symmetries"] = [identity, row, identity]
        # json.dumps writes an int -0 as 0; the document spells it "-0"
        path = tmp_path / "gt.json"
        path.write_text(json.dumps(doc).replace('"NEG_ZERO"', "-0"))
        row = [0 if v == "NEG_ZERO" else v for v in row] if isinstance(row, list) else row
        if not (isinstance(row, list) and len(row) == 12):
            want = "must be 12 numbers (3x4 row-major)"
        elif not all(map(datio._finite_number, row)):
            want = "must be finite numbers"
        else:
            _, objects = parse_gt_json(path)
            assert objects[7].symmetries.tobytes() == np.array([identity, row, identity], np.float64).reshape(-1, 3, 4).tobytes()
            return
        with pytest.raises(SchemaViolation) as exc:
            parse_gt_json(path)
        assert (exc.value.path, exc.value.reason) == ("$.objects.7.symmetries[1]", want)

    def test_symmetries_must_be_a_list(self, tmp_path):
        doc = minimal_gt_doc()
        doc["objects"]["7"]["symmetries"] = {}
        with pytest.raises(SchemaViolation) as exc:
            parse_gt_json(gt_file(tmp_path, doc))
        assert exc.value.path == "$.objects.7.symmetries"

    def test_bad_rotation_in_instance_rejected(self, tmp_path):
        doc = minimal_gt_doc()
        doc["instances"][0]["cam_R_m2c"] = [0] * 9
        with pytest.raises(InvalidRotation):
            parse_gt_json(gt_file(tmp_path, doc))

    def test_bad_rotation_in_instance_names_its_path(self, tmp_path):
        doc = minimal_gt_doc()
        doc["instances"].append(dict(doc["instances"][0], im_id=5, cam_R_m2c=[1, 0, 0, 0, 1, 0, 0, 0, 2]))
        with pytest.raises(InvalidRotation) as exc:
            parse_gt_json(gt_file(tmp_path, doc))
        assert str(exc.value) == "$.instances[1].cam_R_m2c: rotation is not orthonormal with det +1 within 1e-6"


class TestApplyObjectMeta:
    """gt.json object metadata, as parse_ply(path, meta) applies it."""

    def model(self, tmp_path, meta):
        return parse_ply(ply_file(tmp_path, cube_ply()), meta)

    def test_identity_prepended_when_missing(self, tmp_path):
        rot = np.array([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], dtype=float)
        meta = ObjectMeta(symmetries=np.hstack([rot, np.zeros((3, 1))])[None])
        combined = self.model(tmp_path, meta)
        assert len(combined.symmetries) == 2
        assert np.array_equal(combined.symmetries[0], np.eye(3, 4))

    def test_identity_not_duplicated(self, tmp_path):
        meta = ObjectMeta(symmetries=np.eye(3, 4)[None])
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

    @pytest.mark.parametrize("first, second", [("mesh1.ply", "obj_000001.ply"), ("obj_000002.ply", "z_2.ply")])
    def test_two_files_with_one_id_rejected_naming_both(self, tmp_path, first, second):
        (tmp_path / first).write_text(TRIANGLE_PLY)
        (tmp_path / second).write_text(TRIANGLE_PLY)
        with pytest.raises(FastposeError, match=f"{first} and .*{second} both end in object id"):
            discover_meshes(tmp_path)

    def test_load_object_models_applies_metadata(self, tmp_path):
        (tmp_path / "obj_000001.ply").write_text(cube_ply())
        models = load_object_models(tmp_path, {1: ObjectMeta(diameter=1.7320508)})
        assert models[1].diameter == 1.7320508
        assert np.array_equal(models[1].symmetries, [np.eye(3, 4)])

    def test_load_object_models_computes_each_diameter_once(self, tmp_path, diameter_calls):
        (tmp_path / "obj_000001.ply").write_text(cube_ply())
        (tmp_path / "obj_000002.ply").write_text(TRIANGLE_PLY)
        load_object_models(tmp_path, {1: ObjectMeta(diameter=1.7320508), 2: ObjectMeta(symmetric=True)})
        assert sorted(diameter_calls) == [3, 8]

    def test_parse_ply_applies_metadata(self, tmp_path):
        path = ply_file(tmp_path, cube_ply())
        rot = np.array([[-1, 0, 0], [0, -1, 0], [0, 0, 1]], dtype=float)
        model = parse_ply(path, ObjectMeta(1.7320508, True, np.hstack([rot, np.zeros((3, 1))])[None]))
        assert (model.diameter, model.symmetric_flag, len(model.symmetries)) == (1.7320508, True, 2)
        with pytest.raises(SchemaViolation) as exc:
            parse_ply(path, ObjectMeta(diameter=9.0), where="$.objects.3")
        assert exc.value.path == "$.objects.3"

    def test_load_object_models_missing_mesh(self, tmp_path):
        (tmp_path / "obj_000001.ply").write_text(cube_ply())
        with pytest.raises(FileNotFoundError):
            load_object_models(tmp_path, {2: ObjectMeta()})
