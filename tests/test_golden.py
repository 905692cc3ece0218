"""Golden bytes, pinned by sha256: `fastpose eval` reports and depth-map dumps
on the benchmark's seed-701 datasets, and every file and stdout of the
README's compression round trip.

The inputs come from perfbench/generate.py, which depends on numpy alone and
never on fastpose, so a change to the program cannot move them. A digest is
the sha256 of a group's files concatenated in sorted path order, each scene
in its own directory holding report.csv (`--format csv`, from stdout) and
report.json (`--format json --out`). The eval-crowd scenes holding a
behind-camera estimate (8, 16, 24) exit 1 before writing anything and are
left out.

The round trip (build twice, prune, finetune, distill) runs in-process in a
temporary working directory, so the model paths its commands print are
relative and its bytes do not depend on where the test runs.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from fastpose.cli import main

SEED = 701
BOP_REPORTS = "44cb4366c56163b099b40c49f372a22f9e845da3f284751ac32f04196a951ed3"
BOP_MAPS = "53b25180010b2a2d5375a0446a099fe54076b14cf594197930e6feae3683e460"
CROWD_REPORTS = "ca4fac067a23e25ced76a712f33aad6e24498feaf44eed230c3dfa421e8c3606"  # the 21 clean scenes
CROWD_MAP_SCENES = (1, 23)
CROWD_MAPS = "7c13fcee08929ddb3bf9ed5b0634b1ac17a9f38746e9df5684dfc755e59cf152"


@pytest.fixture(scope="module")
def generate():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "generate.py"
    spec = importlib.util.spec_from_file_location("perfbench_generate", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def run_eval(scene: Path, models: Path, out: Path, capsys, dump_maps: bool) -> None:
    args = ["eval", "--gt", str(scene / "gt.json"), "--models", str(models),
            "--results", str(scene / "estimates.csv")]
    maps = ["--dump-maps", str(out / "maps")] if dump_maps else []
    assert main(args + ["--format", "json", "--out", str(out / "report.json")] + maps) == 0
    assert main(args + ["--format", "csv"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    (out / "report.csv").write_text(captured.out, encoding="utf-8")


def test_eval_bop_bytes(generate, tmp_path, capsys):
    generate.generate_eval_bop(SEED, tmp_path / "in")
    out = tmp_path / "out"
    run_eval(tmp_path / "in" / "scene", tmp_path / "in" / "models", out, capsys, dump_maps=True)
    assert digest([out / "report.csv", out / "report.json"]) == BOP_REPORTS
    maps = sorted((out / "maps").glob("*.pgm"))
    assert len(maps) == 15
    assert digest(maps) == BOP_MAPS


def test_eval_crowd_bytes(generate, tmp_path, capsys):
    generate.generate_eval_crowd(SEED, tmp_path / "in")
    clean = [s for s in generate.crowd_scene_ids() if not generate.crowd_is_behind(s)]
    assert len(clean) == 21
    for scene_id in clean:
        name = f"scene_{scene_id:03d}"
        run_eval(tmp_path / "in" / name, tmp_path / "in" / "models", tmp_path / "out" / name, capsys,
                 dump_maps=scene_id in CROWD_MAP_SCENES)
    scenes = [tmp_path / "out" / f"scene_{s:03d}" for s in clean]
    assert digest([d / f for d in scenes for f in ("report.csv", "report.json")]) == CROWD_REPORTS
    maps = sorted(p for d in scenes for p in (d / "maps").glob("*.pgm"))
    assert len(maps) == 18
    assert digest(maps) == CROWD_MAPS


ROUND_TRIP = (
    ("build-teacher", ["build", "--config", "cfg.json", "--module", "full", "--seed", "3", "--out", "teacher.json"]),
    ("build-student", ["build", "--config", "cfg.json", "--module", "full", "--seed", "9", "--out", "student.json"]),
    ("prune", ["prune", "--model", "teacher.json", "--target", "head", "--degree-head", "1",
               "--plan", "plan.json", "--out", "pruned.json"]),
    ("finetune", ["finetune", "--model", "pruned.json", "--reference", "teacher.json", "--epochs", "2",
                  "--lr", "0.01", "--samples", "3", "--trace", "finetune.csv", "--out", "tuned.json"]),
    ("distill", ["distill", "--teacher", "teacher.json", "--student", "student.json", "--epochs", "2",
                 "--samples", "3", "--trace", "distill.csv", "--out", "distilled.json"]),
)
ROUND_TRIP_BYTES = {
    "build-student.stdout": "d68346e827d91f8a62450db287ace6dc32db97b3b0338d787a3ee32d9578ec41",
    "build-teacher.stdout": "6c3f102bf6c32294fd43eda89cb942e41230008f169a0dac767b7f1187bdd038",
    "distill.csv": "04ba1ed1a1b49cb8e99f7dae41ec6a262d48609d9d169fa270a74e2688679127",
    "distill.stdout": "4a0682463dc9a9a32b869de7178199e5d05c911c15f526b7506a00b4a2f8149c",
    "distilled.json": "6410b5442a80bc883affb4afb36ce9e23ad693e31fb53dcbebfe47ab8419783e",
    "distilled.weights": "5c210298bec287ad7baa7aa7e49d80d4f03a3e443f4a659c753f7c800447b77e",
    "finetune.csv": "56504001c6358890e25aae58fe30702c26dcaca83852bdb5104edc30645c52c4",
    "finetune.stdout": "6e5fd3a7d329cb3b4c304b5d60ce3f479269d55687c29379ecc00cd42c5c2bb5",
    "plan.json": "609a0dd79dbebeeadd38bcbd8d81b4bd9c63cbb590c4bd4e8be77d236cc23af1",
    "prune.stdout": "c4029a53157277ffd07002587052b95e4680054e5f970343f96c43c2c7e80a5d",
    "pruned.json": "545a85f596ce7d5e654b4bb32b82c5b38657cfdb13d16c141f19be23b0088e64",
    "pruned.weights": "b602088da5fad0e3b5fc4745e9021e15294b1e2f9a50276dcd15e567b92beacb",
    "student.json": "cb1a419b0203efe52aaf3e652c862fdca9ef2fef41441f2c0cc61c7db0537c11",
    "student.weights": "ea1a0944f61bd2bfdd5aaa13457df8b0edcfa69e1eebd906edddba9fb8fe1c56",
    "teacher.json": "0de601a9b03079092fe2e3e3161b02fb7180928962c7afdee183598d2c175cd0",
    "teacher.weights": "7161fc9df85e29fb971b123bba51baca078028e66d4c4e3564178df539205618",
    "tuned.json": "f9148301f3ea91cc11b35878936b1c3d5b4480bb6ccc9517fb0a5f3da4c4c409",
    "tuned.weights": "f7d5cf45988a9e80a50eb86d752c7b27a90c185dc1bdc7d001d15002f0fb663c",
}


def test_compression_round_trip_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(
        json.dumps({"backbone_width": 8, "head_width": 16, "pnp_width": 8, "regions": 4}), encoding="utf-8")
    digests = {}
    for step, argv in ROUND_TRIP:
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        digests[f"{step}.stdout"] = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    for path in sorted(tmp_path.iterdir()):
        if path.name != "cfg.json":
            digests[path.name] = digest([path])
    assert digests == ROUND_TRIP_BYTES
