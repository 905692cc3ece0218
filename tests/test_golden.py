"""Golden bytes, pinned by sha256: `fastpose eval` reports and depth-map dumps
on the benchmark's seed-701 datasets, and every file and stdout of the
README's compression round trip and of a `distill --adapter` run.

The inputs come from perfbench/generate.py, which depends on numpy alone and
never on fastpose, so a change to the program cannot move them. A digest is
the sha256 of a group's files concatenated in sorted path order, each scene
in its own directory holding report.csv (`--format csv`, from stdout) and
report.json (`--format json --out`). The eval-crowd scenes holding a
behind-camera estimate (8, 16, 24) exit 1 before writing anything and are
left out.

The round trip (build twice, prune, fine-tune the pruned model by distilling
it from its reference, distill a second student) runs in-process in a
temporary working directory, so the model paths its commands print are
relative and its bytes do not depend on where the test runs. The adapter
route runs the same way: a width-8 backbone student is aligned to a width-16
backbone teacher through a 1x1 conv lifting its 8 channels to 16.

The network bytes pin one forward(record=True) and backward pass of the
default-width toy network, its d_head=2, d_pnp=3 pruned variant and a head
graph, on fixed float32 inputs and upstreams: every plain conv (stride-2
backbone and regressor, 1x1 head.out) and every fused upsample-conv at the
width the benchmark runs, which the 8/16/8/4 round trip does not reach.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from fastpose import rng
from fastpose.cli import main
from fastpose.net import ToyConfig, build_toy_gdrn, build_toy_head
from fastpose.prune import PruneConfig, apply_prune, plan_prune

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
    ("prune", ["prune", "--model", "teacher.json", "--degree-head", "1",
               "--plan", "plan.json", "--out", "pruned.json"]),
    ("finetune", ["distill", "--teacher", "teacher.json", "--student", "pruned.json", "--epochs", "2",
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
    "finetune.stdout": "c36210d53819ba751d2e1413d5be4b23b3bf79566c4bd01dcf68ffce9e4691f8",
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


def run_steps(tmp_path, monkeypatch, capsys, configs: dict, steps) -> dict:
    """Write the config files, run the steps in tmp_path and return the sha256
    of each step's stdout and of every file the steps left behind."""
    monkeypatch.chdir(tmp_path)
    for name, fields in configs.items():
        (tmp_path / name).write_text(json.dumps(fields), encoding="utf-8")
    digests = {}
    for step, argv in steps:
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        digests[f"{step}.stdout"] = hashlib.sha256(captured.out.encode("utf-8")).hexdigest()
    for path in sorted(tmp_path.iterdir()):
        if path.name not in configs:
            digests[path.name] = digest([path])
    return digests


def test_compression_round_trip_bytes(tmp_path, monkeypatch, capsys):
    cfg = {"backbone_width": 8, "head_width": 16, "pnp_width": 8, "regions": 4}
    assert run_steps(tmp_path, monkeypatch, capsys, {"cfg.json": cfg}, ROUND_TRIP) == ROUND_TRIP_BYTES


# the adapter route: a width-8 backbone student aligned to a width-16 backbone teacher
ADAPTER_ROUTE = (
    ("build-teacher", ["build", "--config", "wide.json", "--module", "backbone", "--seed", "3",
                       "--out", "teacher.json"]),
    ("build-student", ["build", "--config", "narrow.json", "--module", "backbone", "--seed", "9",
                       "--out", "student.json"]),
    ("distill", ["distill", "--teacher", "teacher.json", "--student", "student.json", "--adapter",
                 "--epochs", "2", "--lr", "0.1", "--samples", "3", "--seed", "5",
                 "--trace", "adapter.csv", "--out", "aligned.json"]),
)
ADAPTER_ROUTE_BYTES = {
    "adapter.csv": "0108086f1b2b3021dd6b53c4a7e629ea9116036383d877e10978d748a8aa499f",
    "aligned.json": "b04795a755ceaf5844779152cf68fa8ee1a012562fceb6679c807a8dcff9ccaf",
    "aligned.weights": "dc5eb11303fe6132669a66f658b621c44a3657ca17bde4875ef63fc2105bc97a",
    "build-student.stdout": "64b8704313925856b14307026a75a596ea06eaaf1ba3bf3184bee674f5656e3f",
    "build-teacher.stdout": "23e9f5447f73779d90943243e0f275dccbed12c10de1216e468eae7c6c3be63b",
    "distill.stdout": "dc71df824d84b5545fea4d4d8d31f28bd3e1b314744652134221269851c4fe82",
    "student.json": "3f16c1b7129799489f4e6fa76a7b46ced0f0d5e1a11381f7e2a77dda978215bb",
    "student.weights": "9c8a5f7be9cf3dbffd5c0336fa6928eeec13d2543e9df49dab913c1a162b5c3c",
    "teacher.json": "044c2f173f24449a124e2ef00daf40449640398343b0fbfbb88843fd1bb4d67f",
    "teacher.weights": "1ea0a4c7c834f459e39d966297beb038ad9b61e6b3387549ddeecec04bf92a42",
}


def test_adapter_route_bytes(tmp_path, monkeypatch, capsys):
    configs = {"wide.json": {"backbone_width": 16}, "narrow.json": {"backbone_width": 8}}
    assert run_steps(tmp_path, monkeypatch, capsys, configs, ADAPTER_ROUTE) == ADAPTER_ROUTE_BYTES


NETWORK_BYTES = "1a2b4d758eb2215962deae10b01ed8a98a54940165f616653c5dd3c0691c3bbe"


def test_network_forward_and_backward_bytes():
    full = build_toy_gdrn(ToyConfig())
    graphs = (full, apply_prune(full, plan_prune(full, PruneConfig(d_head=2, d_pnp=3))), build_toy_head(ToyConfig()))
    h = hashlib.sha256()
    for i, graph in enumerate(graphs):
        gen = rng.derive(SEED, f"network-bytes-{i}")
        x = gen.standard_normal(graph.input_shape).astype(np.float32)
        upstream = gen.standard_normal(graph.output_shape).astype(np.float32)
        y, tape = graph.forward(x, record=True)
        grads, gx = graph.backward(tape, upstream)
        arrays = [y, gx] + [grads[name][key] for name in sorted(grads) for key in sorted(grads[name])]
        assert all(a.dtype == np.float32 for a in arrays)
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == NETWORK_BYTES
