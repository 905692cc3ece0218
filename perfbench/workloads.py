"""The four workloads: set-up, the timed operation, its output checks and
the span instrumentation of its traced phase.

Operations call fastpose through module attributes (`datio.parse_gt_json`,
not a name imported once), so a traced phase can swap those attributes for
timing wrappers.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import numpy as np

import checks
import generate
from spans import Tracer

from fastpose import datio, distill, geom, metrics, prune
from fastpose.errors import NonPositiveDepth
from fastpose.net import ToyConfig, build_toy_gdrn, count_flops, modelio

PRUNE_CONFIG = prune.PruneConfig(target="both", d_head=generate.PRUNE_D_HEAD, d_pnp=generate.PRUNE_D_PNP)


def _key_name(args) -> str:
    scene_id, im_id, obj_id = args[4]
    return f"{scene_id}/{im_id}/{obj_id}"


def _count_render(tr: Tracer, args, out) -> None:
    tr.count("raster.calls")
    tr.count("raster.triangles", len(args[0].triangles))
    tr.defer(lambda t, dmap: t.count("raster.covered_px", int(dmap.visible.sum())), out)


def _count_symmetries(tr: Tracer, args, out) -> None:
    tr.count("metrics.symmetries_evaluated", len(args[0].symmetries))


def _count_matching(tr: Tracer, args, out) -> None:
    tr.count("metrics.matched", out.n_matched)
    tr.count("metrics.missing", out.n_missing)
    tr.count("metrics.extra", out.n_extra)


def instrument_eval(tr: Tracer) -> None:
    """Spans at the eval path's module boundaries: datio, geom, raster, metrics."""
    tr.patch(datio, "parse_gt_json", "datio.parse_gt_json")
    tr.patch(datio, "load_object_models", "datio.load_object_models")
    tr.patch(datio, "parse_ply", "datio.parse_ply",
             after=lambda t, a, out: t.count("datio.vertices_parsed", len(out.vertices)))
    tr.patch(datio, "apply_object_meta", "datio.apply_object_meta")
    tr.patch(datio, "parse_result_csv", "datio.parse_result_csv",
             after=lambda t, a, out: t.count("datio.estimates_parsed", len(out)))
    tr.patch(datio, "make_model", "geom.make_model")
    # the diameter: private today, public model_diameter if a later version routes through it
    tr.patch(geom, "_pairwise_diameter", "geom.model_diameter")
    tr.patch(geom, "model_diameter", "geom.model_diameter")
    tr.patch(geom.Pose, "__post_init__", "geom.pose", after=lambda t, a, out: t.count("geom.poses_built"))
    tr.patch(metrics, "evaluate", "metrics.evaluate", after=_count_matching)
    tr.patch(metrics, "_instance_errors", "metrics.instance", request=_key_name)
    tr.patch(metrics, "render_distance_map", "raster.render_distance_map", after=_count_render)
    tr.patch(metrics, "e_vsd", "metrics.e_vsd")
    tr.patch(metrics, "e_mssd", "metrics.e_mssd", after=_count_symmetries)
    tr.patch(metrics, "e_mspd", "metrics.e_mspd", after=_count_symmetries)
    tr.patch(metrics, "e_add", "metrics.e_add")
    tr.patch(metrics, "e_add_s", "metrics.e_add_s")
    tr.patch(metrics, "average_recall", "metrics.average_recall")
    tr.patch(metrics, "report_to_dict", "metrics.report_to_dict")


def eval_path(scene_dir: Path, models_dir: Path):
    """What `fastpose eval --format json` does, in-process."""
    records, objects = datio.parse_gt_json(scene_dir / "gt.json")
    models = datio.load_object_models(models_dir, objects)
    estimates = datio.parse_result_csv(scene_dir / "estimates.csv")
    result = metrics.evaluate(estimates, records, models)
    payload = metrics.report_to_dict(result.report)
    payload["matching"] = {"matched": result.n_matched, "missing": result.n_missing, "extra_estimates": result.n_extra}
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    return result, {k: m.diameter for k, m in models.items()}, text


def _arrays_digest(arrays) -> str:
    return checks.digest(b"".join(np.ascontiguousarray(a).tobytes() for a in arrays))


def check_eval(result, diameters, text: str, plan, digests: dict, key) -> None:
    checks.check_matching(result.n_matched, result.n_missing, result.n_extra, plan)
    checks.check_exact_zero(result.samples, plan.exact)
    if plan.symmetric_exact:
        checks.check_symmetric_exact(result.samples, plan.symmetric_exact, diameters)
    checks.check_same(digests, key, checks.digest(text.encode()), "report digest")


class Workload:
    """One workload: `setup` builds inputs from the seed, `op` is the timed
    operation, `check` verifies its output, `instrument` installs the spans
    of a traced operation."""

    name = ""
    why = ""
    min_ops = 1
    warmup = True

    def setup(self, seed: int, root: Path) -> dict:
        raise NotImplementedError

    def digest_inputs(self, state) -> str:
        return generate.tree_digest(state["root"])

    def repeat_setup(self, state) -> float:
        """Build the inputs again in a scratch directory; returns the seconds
        it took and checks that the bytes equal the first set-up's."""
        root = state["repeat_dir"]
        shutil.rmtree(root, ignore_errors=True)
        t0 = time.perf_counter()
        again = self.setup(state["seed"], root)
        seconds = time.perf_counter() - t0
        if self.digest_inputs(again) != state["inputs_sha256"]:
            raise checks.CheckFailed("a repeated set-up produced different input bytes")
        shutil.rmtree(root, ignore_errors=True)
        return seconds

    def verify_setup(self, state) -> None:
        pass

    def instrument(self, tr: Tracer, state) -> None:
        pass


class EvalBop(Workload):
    name = "eval-bop"
    why = ("BOP-sized eval (640x480, ~4k-triangle meshes, a 4.9k-vertex symmetric mesh): "
           "raster, diameter and ADD-S dominate")
    min_ops = 2
    warmup = False

    def setup(self, seed: int, root: Path):
        plan = generate.generate_eval_bop(seed, root)
        return {"root": root, "plan": plan, "digests": {}}

    def instrument(self, tr: Tracer, state) -> None:
        instrument_eval(tr)

    def op(self, state, k: int, tr: Tracer | None):
        if tr is not None:
            tr.request = "scene1"
        out = eval_path(state["root"] / "scene", state["root"] / "models")
        return out, out[0].report.n_instances

    def check(self, state, out) -> None:
        result, diameters, text = out
        check_eval(result, diameters, text, state["plan"], state["digests"], "scene1")


class EvalCrowd(Workload):
    name = "eval-crowd"
    why = ("many small per-scene evals of low-poly objects with hundreds of symmetries: "
           "Pose construction and the MSSD/MSPD loops dominate, raster is a small share")
    # every clean scene at least once, so the probe below can count them as passed
    min_ops = generate.CROWD_SCENES - generate.CROWD_SCENES // generate.CROWD_BEHIND_EVERY

    def setup(self, seed: int, root: Path):
        plans = generate.generate_eval_crowd(seed, root)
        clean = [s for s in generate.crowd_scene_ids() if not generate.crowd_is_behind(s)]
        return {"root": root, "plans": plans, "clean": clean, "digests": {}}

    def instrument(self, tr: Tracer, state) -> None:
        instrument_eval(tr)

    def op(self, state, k: int, tr: Tracer | None):
        scene_id = state["clean"][k % len(state["clean"])]
        if tr is not None:
            tr.request = f"scene{scene_id}"
        out = eval_path(state["root"] / f"scene_{scene_id:03d}", state["root"] / "models")
        return (scene_id,) + out, out[0].report.n_instances

    def check(self, state, out) -> None:
        scene_id, result, diameters, text = out
        check_eval(result, diameters, text, state["plans"][scene_id], state["digests"], scene_id)

    def probe_behind_camera(self, state) -> tuple[int, int]:
        """Evaluate each scene holding a behind-camera estimate once, untimed.

        Today such a scene raises NonPositiveDepth; a version that scores the
        estimate as a miss must give it an infinite MSPD. Returns (failed
        scenes, all scenes) over the full scene set, the clean scenes having
        passed in the timed loop."""
        failed = 0
        for scene_id in generate.crowd_scene_ids():
            if not generate.crowd_is_behind(scene_id):
                continue
            try:
                result, _, _ = eval_path(state["root"] / f"scene_{scene_id:03d}", state["root"] / "models")
            except NonPositiveDepth:
                failed += 1
                continue
            bad = {tuple(k) for k in state["plans"][scene_id].behind_camera}
            mspd = [s.error_value for s in result.samples
                    if (s.scene_id, s.im_id, s.obj_id) in bad and s.metric_kind == "mspd"]
            if not mspd or any(np.isfinite(v) for v in mspd):
                raise checks.CheckFailed(f"scene {scene_id}: behind-camera estimate not scored as a miss: {mspd}")
        return failed, generate.CROWD_SCENES


def _toy_cfg(seed: int) -> ToyConfig:
    return ToyConfig(seed=generate.net_seed(seed))


def _pruned_cfg(cfg: ToyConfig) -> ToyConfig:
    return ToyConfig(**{**cfg.to_dict(), "d_head": generate.PRUNE_D_HEAD, "d_pnp": generate.PRUNE_D_PNP})


def instrument_graph(tr: Tracer, graph, role: str, forward_request=None, backward_request=None) -> None:
    tr.patch_instance(graph, "forward", f"net.{role}.forward", request=forward_request)
    tr.patch_instance(graph, "backward", f"net.{role}.backward", request=backward_request)
    for layer in graph.layers:
        tr.patch_instance(layer, "forward", f"net.{role}.layer.{layer.name}")
        tr.patch_instance(layer, "backward", f"net.{role}.bwd.{layer.name}")
        tr.labels[f"net.{role}.layer.{layer.name}"] = tr.labels[f"net.{role}.bwd.{layer.name}"] = layer.kind


class NetInfer(Workload):
    name = "net-infer"
    why = ("single-sample forward of the default toy network (3.27 GMAC) and its pruned "
           "variant (0.88 GMAC): the paper's headline latency, read-only net layers")
    min_ops = 20

    def setup(self, seed: int, root: Path):
        cfg = _toy_cfg(seed)
        full = build_toy_gdrn(cfg)
        pruned = prune.apply_prune(full, prune.plan_prune(full, PRUNE_CONFIG))
        return {"cfg": cfg, "full": full, "pruned": pruned,
                "inputs": generate.net_inputs(seed, generate.INFER_SAMPLES), "digests": {}}

    def digest_inputs(self, state) -> str:
        params = [p for layer in state["full"].layers for _, p in sorted(layer.params().items())]
        return _arrays_digest(state["inputs"] + params)

    def verify_setup(self, state) -> None:
        state["macs"] = {}
        for role, cfg in (("full", state["cfg"]), ("pruned", _pruned_cfg(state["cfg"]))):
            flops = count_flops(state[role])
            checks.check_macs(flops.per_layer, flops.total_macs, checks.toy_macs(cfg))
            state["macs"][role] = {name: m for name, (m, _) in flops.per_layer.items()}

    def instrument(self, tr: Tracer, state) -> None:
        instrument_graph(tr, state["full"], "full")
        instrument_graph(tr, state["pruned"], "pruned")

    def op(self, state, k: int, tr: Tracer | None):
        i = k % len(state["inputs"])
        if tr is not None:
            tr.request = f"sample{i}"
        x = state["inputs"][i]
        y_full = state["full"].forward(x)
        y_pruned = state["pruned"].forward(x)
        return (i, y_full, y_pruned), 1

    def check(self, state, out) -> None:
        i, y_full, y_pruned = out
        for tag, y in (("full", y_full), ("pruned", y_pruned)):
            if y.shape != (9,) or not np.isfinite(y).all():
                raise checks.CheckFailed(f"{tag} output for sample {i} is not 9 finite numbers")
            checks.check_same(state["digests"], (tag, i), checks.digest(y.tobytes()), "network output")


class NetTrain(Workload):
    name = "net-train"
    why = ("prune -> save -> load -> MSE fine-tune of the pruned student on the teacher: "
           "backward, distill losses, sgd_step, prune and modelio")
    min_ops = 3

    def setup(self, seed: int, root: Path):
        cfg = _toy_cfg(seed)
        root.mkdir(parents=True, exist_ok=True)
        modelio.save_model(build_toy_gdrn(cfg), root / "teacher.json")
        return {"cfg": cfg, "root": root, "inputs": generate.net_inputs(seed + 1, generate.TRAIN_SAMPLES),
                "losses": None, "digests": {}}

    def digest_inputs(self, state) -> str:
        return generate.tree_digest(state["root"]) + _arrays_digest(state["inputs"])

    def verify_setup(self, state) -> None:
        graph = modelio.load_model(state["root"] / "teacher.json")
        flops = count_flops(graph)
        checks.check_macs(flops.per_layer, flops.total_macs, checks.toy_macs(state["cfg"]))

    def instrument(self, tr: Tracer, state) -> None:
        tr.patch(prune, "plan_prune", "prune.plan_prune")
        tr.patch(prune, "apply_prune", "prune.apply_prune")
        tr.patch(modelio, "save_model", "net.modelio.save_model")
        tr.patch(modelio, "load_model", "net.modelio.load_model")
        tr.patch(distill, "fine_tune", "distill.fine_tune")
        tr.patch(distill, "mse_loss", "distill.mse_loss")
        tr.patch(distill, "sgd_step", "distill.sgd_step")

    def op(self, state, k: int, tr: Tracer | None):
        root = state["root"]
        # fastpose prune --model teacher.json --target both ... --out pruned.json
        teacher = modelio.load_model(root / "teacher.json")
        pruned = prune.apply_prune(teacher, prune.plan_prune(teacher, PRUNE_CONFIG))
        modelio.save_model(pruned, root / "pruned.json")
        # fastpose finetune --model pruned.json --reference teacher.json ... --out tuned.json
        student = modelio.load_model(root / "pruned.json")
        reference = modelio.load_model(root / "teacher.json")
        if tr is not None:
            # fine_tune runs one forward then one backward per sample; name both after the sample
            step = {"n": -1}

            def next_sample(args):
                step["n"] += 1
                return f"sample{step['n'] % generate.TRAIN_SAMPLES}"

            instrument_graph(tr, student, "student", forward_request=next_sample,
                             backward_request=lambda args: f"sample{step['n'] % generate.TRAIN_SAMPLES}")
            tr.patch_instance(reference, "forward", "net.teacher.forward")
        config = distill.DistillConfig(learning_rate=generate.TRAIN_LR, epochs=generate.TRAIN_EPOCHS,
                                       seed=0, loss_kind="mse")
        _, losses = distill.fine_tune(student, reference, config, state["inputs"])
        modelio.save_model(student, root / "tuned.json")
        return (losses, root), generate.TRAIN_EPOCHS * generate.TRAIN_SAMPLES

    def check(self, state, out) -> None:
        losses, root = out
        checks.check_loss_trace(losses, state["losses"])
        state["losses"] = [float(v) for v in losses]
        checks.check_same(state["digests"], "tuned", checks.digest((root / "tuned.weights").read_bytes()),
                          "fine-tuned weights")


WORKLOADS = {w.name: w for w in (EvalBop(), EvalCrowd(), NetInfer(), NetTrain())}
