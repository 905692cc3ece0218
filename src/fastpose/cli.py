"""Command-line interface.

Subcommands: eval, build, prune, finetune, distill, bench, report.
Exit codes: 0 success, 1 data or file errors, 2 usage errors. All outputs
are deterministic for fixed inputs and seeds except bench timings, which
measure the wall clock on the current machine.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from pathlib import Path

from .bench import format_latency_csv, format_report_csv, measure_latency, read_runs_csv
from .datio import load_object_models, parse_gt_json, parse_result_csv
from .distill import Adapter, DistillConfig, distill_train, fine_tune, format_trace_csv, make_input_sampler
from .errors import FastposeError
from .metrics import evaluate, instance_key, match_estimates, report_to_csv, report_to_dict
from .net import ToyConfig, build_toy_backbone, build_toy_gdrn, build_toy_head, build_toy_pnp, count_flops, count_params, load_model, save_model
from .prune import PruneConfig, apply_prune, plan_prune
from .raster import render_distance_maps, write_pgm

_BUILDERS = {
    "full": build_toy_gdrn,
    "head": build_toy_head,
    "pnp": build_toy_pnp,
    "backbone": build_toy_backbone,
}


def _emit(text: str, out: str | None) -> None:
    """Write `text` to the file `out`, creating missing parent directories, or to stdout."""
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


class UsageError(Exception):
    pass


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return int(text)


def _cmd_eval(args) -> int:
    records, objects = parse_gt_json(args.gt)
    models = load_object_models(args.models, objects)
    estimates = parse_result_csv(args.results)
    result = evaluate(estimates, records, models)
    if args.dump_maps:
        dump_dir = Path(args.dump_maps)
        dump_dir.mkdir(parents=True, exist_ok=True)
        est_by_key, _ = match_estimates(estimates, {instance_key(rec) for rec in records})
        # one render per image, of its ground-truth and scored-estimate maps
        for _, image in itertools.groupby(sorted(records, key=instance_key), key=lambda rec: instance_key(rec)[:2]):
            jobs, paths = [], []
            for rec in image:
                stem = dump_dir / f"{rec.scene_id:06d}_{rec.im_id:06d}_{rec.obj_id:06d}"
                jobs.append((models[rec.obj_id], rec.pose, rec.camera))
                paths.append(f"{stem}_gt.pgm")
                est = est_by_key.get(instance_key(rec))
                if est is not None:
                    jobs.append((models[rec.obj_id], est.pose, rec.camera))
                    paths.append(f"{stem}_est.pgm")
            for dmap, path in zip(render_distance_maps(jobs), paths):
                write_pgm(dmap, path)
    if args.format == "csv":
        _emit(report_to_csv(result.report), args.out)
    else:
        payload = report_to_dict(result.report)
        payload["matching"] = {
            "matched": result.n_matched,
            "missing": result.n_missing,
            "extra_estimates": result.n_extra,
        }
        _emit(_json_text(payload), args.out)
    return 0


def _cmd_build(args) -> int:
    fields = {}
    if args.config:
        fields = json.loads(Path(args.config).read_text(encoding="utf-8"))
    cfg = ToyConfig.from_dict(fields)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    graph = _BUILDERS[args.module](cfg)
    save_model(graph, args.out)
    flops = count_flops(graph)
    sys.stdout.write(_json_text({
        "model": str(args.out),
        "module": args.module,
        "input_shape": list(graph.input_shape),
        "output_shape": list(graph.output_shape),
        "macs": flops.total_macs,
        "params": count_params(graph),
    }))
    return 0


def _cmd_prune(args) -> int:
    graph = load_model(args.model)
    config = PruneConfig(target=args.target, d_head=args.degree_head, d_pnp=args.degree_pnp)
    plan = plan_prune(graph, config)
    pruned = apply_prune(graph, plan)
    save_model(pruned, args.out)
    if args.plan:
        _emit(_json_text(plan.to_dict()), args.plan)
    before, after = count_flops(graph), count_flops(pruned)
    sys.stdout.write(_json_text({
        "model": str(args.out),
        "removed": {name: len(chans) for name, chans in sorted(plan.removed.items())},
        "macs_before": before.total_macs,
        "macs_after": after.total_macs,
        "params_before": count_params(graph),
        "params_after": count_params(pruned),
    }))
    return 0


def _train(args, student, train, **summary) -> int:
    """Train `student` in place on the seeded inputs, then save it, write the
    trace and print the summary; `train(inputs)` returns (student, trace)."""
    inputs = make_input_sampler(student.input_shape, args.samples, args.seed)
    _, trace = train(inputs)
    save_model(student, args.out)
    if args.trace:
        _emit(format_trace_csv(trace), args.trace)
    sys.stdout.write(_json_text({
        "model": str(args.out),
        "epochs": len(trace),
        "first_loss": trace[0] if trace else None,
        "final_loss": trace[-1] if trace else None,
        **summary,
    }))
    return 0


def _cmd_finetune(args) -> int:
    student = load_model(args.model)
    reference = load_model(args.reference)
    config = DistillConfig(learning_rate=args.lr, epochs=args.epochs)
    return _train(args, student, lambda inputs: fine_tune(student, reference, config, inputs))


def _cmd_distill(args) -> int:
    teacher = load_model(args.teacher)
    student = load_model(args.student)
    config = DistillConfig(learning_rate=args.lr, epochs=args.epochs)
    adapter = None
    if args.adapter:
        s_shape, t_shape = student.output_shape, teacher.output_shape
        if len(s_shape) != 3 or len(t_shape) != 3:
            raise UsageError("--adapter needs models whose outputs are feature maps")
        adapter = Adapter.create(s_shape[0], t_shape[0], seed=args.seed)
    return _train(args, student, lambda inputs: distill_train(teacher, student, adapter, config, inputs),
                  loss_kind="feature-align" if adapter else "mse")


def _cmd_bench(args) -> int:
    graph = load_model(args.model)
    record = measure_latency(graph, iterations=args.iterations, warmup=args.warmup,
                             label=args.label, seed=args.seed)
    if args.out:
        _emit(format_latency_csv([record]), args.out)
    sys.stdout.write(_json_text({
        "label": record.label,
        "iterations": len(record.times_ms),
        "mean_ms": record.mean_ms,
        "median_ms": record.median_ms,
        "flops": record.flops,
        "params": record.params,
    }))
    return 0


def _cmd_report(args) -> int:
    _emit(format_report_csv(read_runs_csv(args.runs)), args.out)
    return 0


def _training_args(p: argparse.ArgumentParser, func) -> None:
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--samples", type=_positive_int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trace", help="write per-epoch mean loss CSV here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fastpose", description="Pose evaluation and model compression toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="score pose estimates against ground truth")
    p.add_argument("--gt", required=True, help="ground-truth JSON")
    p.add_argument("--models", required=True, help="directory of .ply meshes")
    p.add_argument("--results", required=True, help="estimates CSV")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--dump-maps", help="directory for rendered depth maps (16-bit PGM)")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("build", help="build a toy model and save it")
    p.add_argument("--config", help="JSON file of config fields")
    p.add_argument("--module", choices=sorted(_BUILDERS), default="full")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("prune", help="remove low-L1 filter groups from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--target", choices=("head", "pnp", "both"), default="both")
    p.add_argument("--degree-head", type=int, default=0, help="groups of 8 to drop per head conv")
    p.add_argument("--degree-pnp", type=int, default=0, help="groups of 4 to drop per regressor conv")
    p.add_argument("--plan", help="also write the prune plan JSON here")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_prune)

    p = sub.add_parser("finetune", help="regress a pruned model onto its reference")
    p.add_argument("--model", required=True, help="pruned model to tune (input)")
    p.add_argument("--reference", required=True, help="unpruned reference model")
    _training_args(p, _cmd_finetune)

    p = sub.add_parser("distill", help="train a student model against a teacher")
    p.add_argument("--teacher", required=True)
    p.add_argument("--student", required=True)
    p.add_argument("--adapter", action="store_true", help="feature alignment through a 1x1-conv adapter")
    _training_args(p, _cmd_distill)

    p = sub.add_parser("bench", help="time forward passes of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--iterations", type=int, default=200)
    p.add_argument("--warmup", type=int, default=10)
    p.add_argument("--label", default="model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write a latency CSV here")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("report", help="Pareto-mark accuracy/latency operating points")
    p.add_argument("--runs", required=True, help="CSV with label, ar, and a latency column")
    p.add_argument("--out", help="write the marked CSV here instead of stdout")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (FastposeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
