"""Golden bytes: `fastpose eval` reports and depth-map dumps on the benchmark's
seed-701 datasets, pinned by sha256.

The inputs come from perfbench/generate.py, which depends on numpy alone and
never on fastpose, so a change to the program cannot move them. A digest is
the sha256 of a group's files concatenated in sorted path order, each scene
in its own directory holding report.csv (`--format csv`, from stdout) and
report.json (`--format json --out`). The eval-crowd scenes holding a
behind-camera estimate (8, 16, 24) exit 1 before writing anything and are
left out.
"""

from __future__ import annotations

import hashlib
import importlib.util
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
