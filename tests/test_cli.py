"""End-to-end command-line tests covering every subcommand, the exit-code
contract (0 ok, 1 data errors, 2 usage errors), and output determinism."""

import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fastpose.cli import build_parser, main
from fastpose.net import load_model
from fastpose.prune import PrunePlan

CUBE_EDGE = 40.0

SUBCOMMANDS = ["eval", "build", "prune", "distill", "bench", "report"]


def cube_ply_text() -> str:
    verts = [
        (x, y, z)
        for x in (0.0, CUBE_EDGE)
        for y in (0.0, CUBE_EDGE)
        for z in (0.0, CUBE_EDGE)
    ]
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
    lines += [f"{x:g} {y:g} {z:g}" for x, y, z in verts]
    lines += [f"3 {a} {b} {c}" for a, b, c in faces]
    return "\n".join(lines) + "\n"


def eval_fixture(tmp_path, with_second_estimate=True):
    """Two ground-truth instances of a cube; estimates match exactly."""
    mesh_dir = tmp_path / "meshes"
    mesh_dir.mkdir()
    (mesh_dir / "obj_000001.ply").write_text(cube_ply_text())
    (mesh_dir / "obj_000002.ply").write_text(cube_ply_text())

    def instance(im_id, obj_id, tz):
        return {
            "scene_id": 1,
            "im_id": im_id,
            "obj_id": obj_id,
            "cam_K": [60.0, 0.0, 16.0, 0.0, 60.0, 12.0, 0.0, 0.0, 1.0],
            "im_size": [32, 24],
            "cam_R_m2c": [1, 0, 0, 0, 1, 0, 0, 0, 1],
            "cam_t_m2c": [-20.0, -20.0, tz],
        }

    gt = {
        "instances": [instance(1, 1, 300.0), instance(2, 2, 340.0)],
        "objects": {"1": {}, "2": {"symmetric": True}},
    }
    gt_path = tmp_path / "gt.json"
    gt_path.write_text(json.dumps(gt))

    rows = ["scene_id,im_id,obj_id,score,R,t,time"]
    rows.append("1,1,1,0.9,1 0 0 0 1 0 0 0 1,-20 -20 300,0.05")
    if with_second_estimate:
        rows.append("1,2,2,0.8,1 0 0 0 1 0 0 0 1,-20 -20 340,0.04")
    results_path = tmp_path / "results.csv"
    results_path.write_text("\n".join(rows) + "\n")
    return gt_path, mesh_dir, results_path


def eval_args(gt, meshes, results, *extra):
    return ["eval", "--gt", str(gt), "--models", str(meshes), "--results", str(results), *extra]


def write_config(tmp_path, **kw):
    base = dict(backbone_width=8, head_width=16, pnp_width=8, regions=4)
    base.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(base))
    return path


def build_model(tmp_path, name, module="full", seed=None, **cfg_kw):
    cfg = write_config(tmp_path, **cfg_kw)
    out = tmp_path / name
    args = ["build", "--config", str(cfg), "--module", module, "--out", str(out)]
    if seed is not None:
        args += ["--seed", str(seed)]
    assert main(args) == 0
    return out


class TestArgumentHandling:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_subcommand_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert f"usage: fastpose {command}" in capsys.readouterr().out

    def test_no_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--runs", "x.csv", "--frobnicate"])
        assert exc.value.code == 2

    def test_missing_file_is_a_data_error(self, tmp_path, capsys):
        code = main(eval_args(tmp_path / "no.json", tmp_path, tmp_path / "no.csv"))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_results_is_a_data_error(self, tmp_path, capsys):
        gt, meshes, results = eval_fixture(tmp_path)
        results.write_text("scene_id,im_id,obj_id,score,R,t,time\n1,2\n")
        assert main(eval_args(gt, meshes, results)) == 1

    def test_non_rotation_symmetry_names_its_gt_json_row(self, tmp_path, capsys):
        gt, meshes, results = eval_fixture(tmp_path)
        rot_z180 = [-1.0, 0, 0, 0, 0, -1.0, 0, 0, 0, 0, 1.0, 0]
        skewed = [1.0, 0.1, 0, 0, 0, 1.0, 0, 0, 0, 0, 1.0, 0]
        doc = json.loads(gt.read_text())
        doc["objects"]["7"] = {"symmetries": [rot_z180, skewed, skewed]}  # no identity row: the model gets one first
        gt.write_text(json.dumps(doc))
        (meshes / "obj_000007.ply").write_text(cube_ply_text())
        assert main(eval_args(gt, meshes, results)) == 1
        assert capsys.readouterr().err == "error: $.objects.7.symmetries[1]: R is not a rotation within 1e-6\n"

    def test_two_meshes_with_one_id_are_a_data_error(self, tmp_path, capsys):
        gt, meshes, results = eval_fixture(tmp_path)
        (meshes / "mesh1.ply").write_text(cube_ply_text())
        assert main(eval_args(gt, meshes, results)) == 1
        err = capsys.readouterr().err
        assert "mesh1.ply" in err and "obj_000001.ply" in err

    # each command names a file that does not exist, so exit 2 shows the flag was checked before any read
    @pytest.mark.parametrize("command, flag, value", [
        ("distill", "--epochs", "-1"),
        ("distill", "--lr", "0"),
        ("distill", "--lr", "-0.5"),
        ("distill", "--lr", "nan"),
        ("distill", "--lr", "inf"),
        ("distill", "--seed", "-1"),
        ("build", "--seed", "-1"),
        ("bench", "--seed", "-1"),
        ("bench", "--iterations", "0"),
        ("bench", "--warmup", "-1"),
        ("prune", "--degree-head", "-1"),
        ("prune", "--degree-pnp", "-1"),
    ])
    def test_out_of_range_value_is_a_usage_error_naming_the_flag(self, command, flag, value, tmp_path,
                                                                  monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        inputs = {"distill": ["--teacher", "missing.json", "--student", "missing.json"],
                  "build": ["--config", "missing.json"], "bench": ["--model", "missing.json"],
                  "prune": ["--model", "missing.json"]}
        with pytest.raises(SystemExit) as exc:
            main([command, *inputs[command], flag, value, "--out", "out.json"])
        assert exc.value.code == 2
        assert f"argument {flag}: must be " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_module_runs_as_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fastpose.cli", "--help"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "eval" in proc.stdout


def readme_sh_blocks() -> list[list[tuple]]:
    """README.md's sh blocks, each as its steps in order: ("write", path,
    text) for a `cat > path <<EOF` heredoc and ("run", argv) for a
    `fastpose ...` command, with backslash continuations joined."""
    blocks, block, heredoc, pending = [], None, None, ""
    for line in (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines():
        if heredoc is not None:
            tag, path, body = heredoc
            if line.strip() != tag:
                body.append(line + "\n")
                continue
            if path:
                block.append(("write", path, "".join(body)))
            heredoc = None
        elif line.startswith("```"):
            block = [] if line.strip() == "```sh" else None
            if block is not None:
                blocks.append(block)
        elif block is not None:
            pending += line
            if pending.endswith("\\"):
                pending = pending[:-1]
                continue
            m = re.search(r"<<-?\s*['\"]?(\w+)", pending)
            if m:
                target = re.search(r">\s*(\S+)", pending[:m.start()])
                heredoc = (m.group(1), target.group(1) if target else None, [])
            words = shlex.split(pending, comments=True)
            pending = ""
            if words[:1] == ["fastpose"]:
                block.append(("run", words[1:]))
    return blocks


def readme_commands() -> list[list[str]]:
    """The arguments of every `fastpose ...` command in README.md's sh blocks."""
    return [step[1] for block in readme_sh_blocks() for step in block if step[0] == "run"]


class TestReadmeCommands:
    def test_every_readme_command_parses(self, capsys):
        commands = readme_commands()
        assert {argv[0] for argv in commands} == set(SUBCOMMANDS)
        for argv in commands:
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README command does not parse: fastpose {shlex.join(argv)}\n{capsys.readouterr().err}")

    def test_round_trip_and_report_blocks_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        blocks = [block for block in readme_sh_blocks()
                  if any(step[0] == "run" and step[1][0] in ("build", "report") for step in block)]
        assert [[step[1][0] for step in block if step[0] == "run"] for block in blocks] == [
            ["build", "build", "prune", "distill", "distill", "bench"], ["report"]]
        for block in blocks:
            for step in block:
                if step[0] == "write":
                    Path(step[1]).write_text(step[2], encoding="utf-8")
                    continue
                assert main(step[1]) == 0, f"fastpose {shlex.join(step[1])}"
                assert capsys.readouterr().err == ""


class TestEval:
    def test_perfect_estimates_score_one(self, tmp_path, capsys):
        gt, meshes, results = eval_fixture(tmp_path)
        assert main(eval_args(gt, meshes, results)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ar_bop"] == 1.0
        assert payload["matching"] == {
            "matched": 2,
            "missing": 0,
            "extra_estimates": 0,
        }

    def test_missing_estimate_reduces_recall(self, tmp_path, capsys):
        gt, meshes, results = eval_fixture(tmp_path, with_second_estimate=False)
        assert main(eval_args(gt, meshes, results)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ar_bop"] == 0.5
        assert payload["matching"]["missing"] == 1

    def test_csv_output_to_file(self, tmp_path):
        gt, meshes, results = eval_fixture(tmp_path)
        out = tmp_path / "report.csv"
        assert main(eval_args(gt, meshes, results, "--format", "csv", "--out", str(out))) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "scope,obj_id,metric,tau,threshold,value"
        assert any(ln.startswith("dataset,") and ",ar_bop," in ln for ln in lines)

    def test_reruns_are_byte_identical(self, tmp_path):
        gt, meshes, results = eval_fixture(tmp_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert main(eval_args(gt, meshes, results, "--format", "csv", "--out", str(out))) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_csv_and_json_reports_agree(self, tmp_path, capsys):
        gt, meshes, results = eval_fixture(tmp_path)
        # shifted estimates, so the recall tables mix hits and misses
        results.write_text("scene_id,im_id,obj_id,score,R,t,time\n"
                           "1,1,1,0.9,1 0 0 0 1 0 0 0 1,-15 -20 300,0.05\n"
                           "1,2,2,0.8,1 0 0 0 1 0 0 0 1,-20 -20 352,0.04\n")
        assert main(eval_args(gt, meshes, results)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert main(eval_args(gt, meshes, results, "--format", "csv")) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
        grid = doc["grid"]
        objects = {o["obj_id"]: o for o in doc["per_object"]}
        for scope, obj_id, metric, tau, threshold, value in rows:
            if scope == "dataset":
                want = doc[metric]
            elif metric.startswith("ar_"):
                want = objects[int(obj_id)][metric]
            elif metric == "vsd":
                table = objects[int(obj_id)]["vsd_recall"]
                want = table[grid["vsd_taus"].index(float(tau))][grid["vsd_correctness"].index(float(threshold))]
            else:  # mssd, mspd, or the object's add_kind
                obj = objects[int(obj_id)]
                kind = "add" if metric == obj["add_kind"] else metric
                want = obj[f"{kind}_recall"][grid[f"{kind}_correctness"].index(float(threshold))]
            assert float(value) == want, (scope, obj_id, metric, tau, threshold)
        # and every JSON value has its CSV row
        per_object = [100 + 10 + 10 + len(o["add_recall"]) + 3 + (o["ar_add"] is not None) for o in objects.values()]
        assert len(rows) == sum(per_object) + 4 + (doc["ar_add"] is not None)
        assert 0 < doc["ar_bop"] < 1 and 0 < doc["ar_add"] < 1

    def test_dump_maps_writes_named_pgms(self, tmp_path, capsys):
        gt, meshes, results = eval_fixture(tmp_path, with_second_estimate=False)
        dump = tmp_path / "maps"
        assert main(eval_args(gt, meshes, results, "--dump-maps", str(dump))) == 0
        names = sorted(p.name for p in dump.iterdir())
        # The unmatched second instance gets a ground-truth render only.
        assert names == [
            "000001_000001_000001_est.pgm",
            "000001_000001_000001_gt.pgm",
            "000001_000002_000002_gt.pgm",
        ]
        first = (dump / names[0]).read_bytes()
        assert first.startswith(b"P2")

    def test_dump_maps_renders_the_scored_duplicate(self, tmp_path, capsys):
        gt, meshes, results = eval_fixture(tmp_path, with_second_estimate=False)
        with results.open("a") as f:  # a lower-score duplicate, shifted 10 mm, listed last
            f.write("1,1,1,0.5,1 0 0 0 1 0 0 0 1,-10 -20 300,0.05\n")
        dump = tmp_path / "maps"
        assert main(eval_args(gt, meshes, results, "--dump-maps", str(dump))) == 0
        assert json.loads(capsys.readouterr().out)["ar_bop"] == 0.5
        est_map, gt_map = (dump / f"000001_000001_000001_{kind}.pgm" for kind in ("est", "gt"))
        assert est_map.read_bytes() == gt_map.read_bytes()


class TestBuild:
    def test_build_reports_counts_and_saves(self, tmp_path, capsys):
        model = build_model(tmp_path, "m.json", module="head")
        payload = json.loads(capsys.readouterr().out)
        assert payload["module"] == "head"
        assert payload["macs"] > 0
        assert payload["params"] > 0
        graph = load_model(model)
        assert graph.input_shape == tuple(payload["input_shape"])

    def test_same_seed_builds_identical_files(self, tmp_path):
        a = build_model(tmp_path, "a.json", seed=3)
        b = build_model(tmp_path, "b.json", seed=3)
        assert a.with_suffix(".weights").read_bytes() == b.with_suffix(".weights").read_bytes()

    def test_different_seed_changes_weights(self, tmp_path):
        a = build_model(tmp_path, "a.json", seed=3)
        b = build_model(tmp_path, "b.json", seed=4)
        assert a.with_suffix(".weights").read_bytes() != b.with_suffix(".weights").read_bytes()

    def test_unknown_config_field_is_a_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"mystery": 1}))
        assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 1

    def test_negative_config_seed_is_a_data_error_naming_it(self, tmp_path, capsys):
        cfg = write_config(tmp_path, seed=-1)
        out = tmp_path / "m.json"
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    @pytest.mark.parametrize("doc, named", [
        ({"regions": 4.7}, "'regions'"), ({"regions": True}, "'regions'"), ({"regions": "8"}, "'regions'"),
        ({"regions": None}, "'regions'"), ([1], "JSON object"),
    ])
    def test_config_values_must_be_integers(self, tmp_path, capsys, doc, named):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "m.json"
        assert main(["build", "--config", str(cfg), "--out", str(out)]) == 1
        assert named in capsys.readouterr().err
        assert not out.exists()


class TestPruneCommand:
    def test_prune_reduces_counts_and_writes_plan(self, tmp_path, capsys):
        model = build_model(tmp_path, "m.json")
        capsys.readouterr()
        out = tmp_path / "pruned.json"
        plan_path = tmp_path / "plan.json"
        code = main([
            "prune", "--model", str(model),
            "--degree-head", "1", "--plan", str(plan_path), "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["macs_after"] < payload["macs_before"]
        assert payload["params_after"] < payload["params_before"]
        assert payload["removed"] == {
            "head.conv1": 8, "head.conv2": 8, "head.conv3": 8,
        }
        plan = PrunePlan.from_dict(json.loads(plan_path.read_text()))
        assert set(plan.removed) == {"head.conv1", "head.conv2", "head.conv3"}
        load_model(out)

    def test_over_aggressive_prune_is_a_data_error(self, tmp_path, capsys):
        model = build_model(tmp_path, "m.json")
        capsys.readouterr()
        code = main([
            "prune", "--model", str(model),
            "--degree-head", "2", "--out", str(tmp_path / "p.json"),
        ])
        assert code == 1

    @pytest.mark.parametrize("target", ["head", "pnp", "both"])
    def test_target_option_is_a_usage_error(self, target, tmp_path, capsys):
        model = build_model(tmp_path, "m.json")
        capsys.readouterr()
        out = tmp_path / "p.json"
        with pytest.raises(SystemExit) as exc:
            main(["prune", "--model", str(model), "--target", target, "--degree-head", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestDistillCommand:
    def test_output_distillation(self, tmp_path, capsys):
        teacher = build_model(tmp_path, "t.json", seed=1)
        student = build_model(tmp_path, "s.json", seed=2)
        capsys.readouterr()
        out = tmp_path / "distilled.json"
        code = main([
            "distill", "--teacher", str(teacher), "--student", str(student),
            "--epochs", "1", "--samples", "2", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["loss_kind"] == "mse"
        assert payload["epochs"] == 1
        load_model(out)

    def test_pruned_student_onto_its_reference_writes_model_and_trace(self, tmp_path, capsys):
        reference = build_model(tmp_path, "ref.json")
        pruned = tmp_path / "pruned.json"
        main(["prune", "--model", str(reference),
              "--degree-head", "1", "--out", str(pruned)])
        capsys.readouterr()
        out = tmp_path / "tuned.json"
        trace = tmp_path / "trace.csv"
        code = main([
            "distill", "--teacher", str(reference), "--student", str(pruned),
            "--epochs", "2", "--samples", "2", "--lr", "1e-4",
            "--trace", str(trace), "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["epochs"] == 2
        assert payload["final_loss"] is not None
        lines = trace.read_text().splitlines()
        assert lines[0] == "epoch,mean_loss"
        assert len(lines) == 3
        load_model(out)

    def test_adapter_route_on_feature_maps(self, tmp_path, capsys):
        teacher = build_model(tmp_path, "t.json", module="head", seed=1)
        student = build_model(tmp_path, "s.json", module="head", seed=2, d_head=1)
        capsys.readouterr()
        code = main([
            "distill", "--teacher", str(teacher), "--student", str(student),
            "--adapter", "--epochs", "1", "--samples", "1",
            "--out", str(tmp_path / "d.json"),
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["loss_kind"] == "feature-align"

    def test_adapter_needs_feature_map_outputs(self, tmp_path, capsys):
        # Full models end in a vector output, so the adapter route is a
        # usage error there.
        teacher = build_model(tmp_path, "t.json", seed=1)
        student = build_model(tmp_path, "s.json", seed=2)
        capsys.readouterr()
        code = main([
            "distill", "--teacher", str(teacher), "--student", str(student),
            "--adapter", "--epochs", "1", "--samples", "1",
            "--out", str(tmp_path / "d.json"),
        ])
        assert code == 2

    @pytest.mark.parametrize("option", [["--loss", "kl"], ["--temperature", "2"], ["--squared-temperature"]])
    def test_removed_loss_options_are_usage_errors(self, option, tmp_path, capsys):
        teacher = build_model(tmp_path, "t.json", seed=1)
        out = tmp_path / "d.json"
        with pytest.raises(SystemExit) as exc:
            main(["distill", "--teacher", str(teacher), "--student", str(teacher), *option,
                  "--epochs", "1", "--samples", "1", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_models_of_different_input_shapes_are_a_data_error_naming_both(self, tmp_path, capsys):
        teacher = build_model(tmp_path, "t.json", module="head", seed=1)
        student = build_model(tmp_path, "s.json", seed=2)
        capsys.readouterr()
        out = tmp_path / "d.json"
        assert main(["distill", "--teacher", str(teacher), "--student", str(student),
                     "--epochs", "1", "--samples", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "teacher and student differ in input shape" in err
        assert f"teacher {load_model(teacher).input_shape}, student {load_model(student).input_shape}" in err
        assert not out.exists()

    def test_finetune_command_is_gone(self, tmp_path, capsys):
        reference = build_model(tmp_path, "ref.json")
        capsys.readouterr()
        out, trace = tmp_path / "tuned.json", tmp_path / "trace.csv"
        with pytest.raises(SystemExit) as exc:
            main(["finetune", "--model", str(reference), "--reference", str(reference),
                  "--epochs", "1", "--samples", "1", "--trace", str(trace), "--out", str(out)])
        assert exc.value.code == 2
        assert "invalid choice: 'finetune'" in capsys.readouterr().err
        assert not out.exists() and not trace.exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_is_a_usage_error(self, samples, tmp_path, capsys):
        teacher = build_model(tmp_path, "t.json", seed=1)
        student = build_model(tmp_path, "s.json", seed=2)
        out = tmp_path / "d.json"
        with pytest.raises(SystemExit) as exc:
            main(["distill", "--teacher", str(teacher), "--student", str(student),
                  "--epochs", "1", "--samples", samples, "--out", str(out)])
        assert exc.value.code == 2
        assert "--samples" in capsys.readouterr().err
        assert not out.exists()


class TestBenchCommand:
    def test_bench_reports_and_writes_csv(self, tmp_path, capsys):
        model = build_model(tmp_path, "m.json", module="pnp")
        capsys.readouterr()
        out = tmp_path / "latency.csv"
        code = main([
            "bench", "--model", str(model), "--iterations", "3",
            "--warmup", "0", "--label", "tiny", "--out", str(out),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["label"] == "tiny"
        assert payload["iterations"] == 3
        assert payload["mean_ms"] > 0
        lines = out.read_text().splitlines()
        assert lines[0] == "label,mean_ms,median_ms,iterations,flops,params"
        assert lines[1].startswith("tiny,")

    def test_malformed_manifest_is_a_data_error(self, tmp_path, capsys):
        model = build_model(tmp_path, "m.json", module="pnp")
        doc = json.loads(model.read_text())
        doc["layers"][0]["params"]["weight"] = 5
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["bench", "--model", str(model), "--iterations", "1", "--warmup", "0"]) == 1
        assert "params.weight" in capsys.readouterr().err

    def test_weights_of_a_partial_float_are_a_data_error(self, tmp_path, capsys):
        model = build_model(tmp_path, "m.json", module="pnp")
        weights = tmp_path / "m.weights"
        weights.write_bytes(weights.read_bytes() + b"\0\0")
        capsys.readouterr()
        assert main(["bench", "--model", str(model), "--iterations", "1", "--warmup", "0"]) == 1
        err = capsys.readouterr().err
        assert f"{weights}: {weights.stat().st_size} bytes" in err

    # pnp manifest layers: 0 concat, 1 conv1, 2 gn1, 3 relu1, ..., 10 flatten, 11 fc1
    @pytest.mark.parametrize("mutate, where", [
        (lambda d: d["layers"][2]["config"].update(group_size=0), "pnp.gn1: group size"),
        (lambda d: d["layers"][1]["config"].update(stride=0), "pnp.conv1: stride"),
        (lambda d: d["layers"][1]["config"].update(padding=-1), "pnp.conv1: stride"),
        (lambda d: d["layers"][1]["config"].update(stride=None), "$.layers[1].config.stride"),
        (lambda d: d["layers"][1]["config"].update(stride=True), "$.layers[1].config.stride"),
        (lambda d: d["layers"][1]["config"].update(stride=1.5), "$.layers[1].config.stride"),
        (lambda d: d["layers"][2]["config"].update(group_size=2.5), "$.layers[2].config.group_size"),
        (lambda d: d["layers"][2]["config"].update(eps=[1]), "$.layers[2].config.eps"),
        (lambda d: d["layers"][2]["config"].update(eps=float("nan")), "$.layers[2].config.eps"),
        (lambda d: d["layers"][2]["config"].update(eps=float("inf")), "$.layers[2].config.eps"),
        (lambda d: d["layers"][2]["config"].update(eps=float("-inf")), "$.layers[2].config.eps"),
        (lambda d: d["layers"][2]["config"].update(eps=0), "$.layers[2].config.eps"),
        (lambda d: d["layers"][2]["config"].update(eps=-1e-5), "$.layers[2].config.eps"),
        (lambda d: d["layers"][1]["params"]["weight"].update(offset=0.5), "$.layers[1].params.weight.offset"),
        (lambda d: d["layers"][1]["params"]["weight"].update(shape=[-1, 8, 3, 3]), "$.layers[1].params.weight"),
        (lambda d: d["layers"][1]["params"]["weight"].update(shape=5), "$.layers[1].params.weight.shape"),
        (lambda d: d["layers"][1].update(inputs=5), "$.layers[1].inputs"),
        (lambda d: d["layers"][1].update(inputs="@input"), "$.layers[1].inputs"),
        (lambda d: d["layers"][1].update(inputs=[5]), "$.layers[1].inputs"),
        (lambda d: d["layers"][3].update(inputs=[]), "$.layers[3].inputs"),
        (lambda d: d["layers"][10].update(inputs=["pnp.relu3", "pnp.relu3"]), "$.layers[10].inputs"),
        (lambda d: d["layers"][1].update(kind=["conv2d"]), "$.layers[1].kind"),
        (lambda d: d["layers"][1].update(name=7), "$.layers[1].name"),
        (lambda d: d["layers"][0]["config"].update(ranges=5), "$.layers[0].config.ranges"),
        (lambda d: d["layers"][0]["config"].update(ranges=[[0, 4], [5]]), "$.layers[0].config.ranges[1]"),
        (lambda d: d["layers"][0]["config"].update(ranges=[[0, 4], [5.0, 9]]), "$.layers[0].config.ranges[1]"),
        (lambda d: d.update(meta=[1]), "$.meta"),
        (lambda d: d.update(output=[1]), "output layer [1]"),
        (lambda d: d.update(input_shape=[10, 64.0, 64]), "$.input_shape"),
        (lambda d: d.update(weights_file=5), "$.weights_file"),
    ], ids=["group-size-0", "stride-0", "padding-negative", "stride-null", "stride-bool", "stride-fraction",
            "group-size-fraction", "eps-list", "eps-nan", "eps-infinity", "eps-minus-infinity", "eps-0",
            "eps-negative", "offset-fraction", "shape-negative", "shape-number", "inputs-number",
            "inputs-string", "inputs-of-numbers", "relu-without-input", "flatten-with-two-inputs", "kind-list",
            "name-number", "ranges-number", "range-of-one", "range-of-a-float", "meta-list", "output-list",
            "input-shape-float", "weights-file-number"])
    def test_mutated_manifest_is_a_data_error(self, tmp_path, capsys, mutate, where):
        model = build_model(tmp_path, "m.json", module="pnp")
        doc = json.loads(model.read_text())
        mutate(doc)
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["bench", "--model", str(model), "--iterations", "1", "--warmup", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err

    def test_label_with_a_comma_is_a_data_error_and_writes_nothing(self, tmp_path, capsys):
        model = build_model(tmp_path, "m.json", module="pnp")
        capsys.readouterr()
        out = tmp_path / "lat.csv"
        assert main(["bench", "--model", str(model), "--iterations", "1", "--warmup", "0",
                     "--label", "pruned,d1", "--out", str(out)]) == 1
        assert "label" in capsys.readouterr().err
        assert not out.exists()


class TestReportCommand:
    def runs_csv(self, tmp_path, text):
        path = tmp_path / "runs.csv"
        path.write_text(text)
        return path

    def test_report_to_stdout(self, tmp_path, capsys):
        runs = self.runs_csv(
            tmp_path, "label,ar,latency_ms\nfull,0.8,100\npruned,0.7,150\n"
        )
        assert main(["report", "--runs", str(runs)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "label,ar,mean_ms,median_ms,flops,params,dominated"
        assert lines[1].endswith("false")
        assert lines[2].endswith("true")

    def test_single_row_is_non_dominated(self, tmp_path, capsys):
        runs = self.runs_csv(tmp_path, "label,ar,latency_ms\nonly,0.5,10\n")
        assert main(["report", "--runs", str(runs)]) == 0
        assert capsys.readouterr().out.splitlines()[1].endswith("false")

    def test_report_reruns_byte_identical(self, tmp_path):
        runs = self.runs_csv(
            tmp_path, "label,ar,latency_ms\nfull,0.8,100\npruned,0.7,150\n"
        )
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            assert main(["report", "--runs", str(runs), "--out", str(out)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_empty_runs_is_a_data_error(self, tmp_path, capsys):
        runs = self.runs_csv(tmp_path, "label,ar,latency_ms\n")
        assert main(["report", "--runs", str(runs)]) == 1


class TestNestedOutputPaths:
    """Every file option creates missing parent directories and writes the
    same text there as into an existing directory."""

    def write_both(self, tmp_path, args, flag, name):
        flat, nested = tmp_path / name, tmp_path / "a" / "b" / name
        for path in (flat, nested):
            assert main([*args, flag, str(path)]) == 0
        assert nested.read_text() == flat.read_text()
        return nested.read_text()

    def test_prune_plan(self, tmp_path, capsys):
        model = build_model(tmp_path, "m.json", module="pnp")
        text = self.write_both(tmp_path, ["prune", "--model", str(model), "--degree-pnp", "1",
                                          "--out", str(tmp_path / "p.json")], "--plan", "plan.json")
        assert PrunePlan.from_dict(json.loads(text)).removed

    def test_training_trace(self, tmp_path, capsys):
        a = build_model(tmp_path, "a.json", module="pnp", seed=1)
        b = build_model(tmp_path, "b.json", module="pnp", seed=2)
        text = self.write_both(tmp_path, ["distill", "--teacher", str(a), "--student", str(b), "--epochs", "2",
                                          "--samples", "2", "--out", str(tmp_path / "o.json")], "--trace", "trace.csv")
        assert text.splitlines()[0] == "epoch,mean_loss" and len(text.splitlines()) == 3

    def test_bench_out(self, tmp_path, capsys):
        model = build_model(tmp_path, "m.json", module="pnp")
        capsys.readouterr()
        out = tmp_path / "a" / "b" / "latency.csv"
        assert main(["bench", "--model", str(model), "--iterations", "3", "--warmup", "0",
                     "--label", "tiny", "--out", str(out)]) == 0
        p = json.loads(capsys.readouterr().out)
        assert out.read_text() == ("label,mean_ms,median_ms,iterations,flops,params\n"
                                   f"tiny,{p['mean_ms']:.17g},{p['median_ms']:.17g},3,{p['flops']},{p['params']}\n")

    def test_report_out(self, tmp_path, capsys):
        runs = tmp_path / "runs.csv"
        runs.write_text("label,ar,latency_ms\nfull,0.8,100\npruned,0.7,150\n")
        assert main(["report", "--runs", str(runs)]) == 0
        assert self.write_both(tmp_path, ["report", "--runs", str(runs)], "--out", "report.csv") == \
            capsys.readouterr().out
