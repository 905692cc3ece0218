"""Output checks. Each raises CheckFailed with a reason; run.py turns any
failure into a non-zero exit with `"correct": false`."""

from __future__ import annotations

import hashlib

import numpy as np


class CheckFailed(Exception):
    pass


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_matching(matched: int, missing: int, extra: int, plan) -> None:
    got = (matched, missing, extra)
    want = (plan.matched, plan.missing, plan.extra)
    if got != want:
        raise CheckFailed(f"matched/missing/extra {got} != planted {want}")


def check_exact_zero(samples, keys) -> None:
    """Every error of every exact-pose instance is exactly 0."""
    keys = {tuple(k) for k in keys}
    seen = set()
    for s in samples:
        key = (s.scene_id, s.im_id, s.obj_id)
        if key not in keys:
            continue
        values = s.vsd_errors if s.metric_kind == "vsd" else (s.error_value,)
        if any(v != 0.0 for v in values):
            raise CheckFailed(f"exact-pose instance {key} scored {s.metric_kind}={values}")
        seen.add((key, s.metric_kind))
    for key in keys:
        kinds = {k for (kk, k) in seen if kk == key}
        if not {"vsd", "mssd", "mspd"} <= kinds or not kinds & {"add", "add-s"}:
            raise CheckFailed(f"exact-pose instance {key} is missing error samples (got {sorted(kinds)})")


def check_symmetric_exact(samples, keys, diameters: dict, rtol: float = 1e-9) -> None:
    """An estimate that is the ground truth composed with a listed symmetry
    has (numerically) zero MSSD."""
    keys = {tuple(k) for k in keys}
    found = set()
    for s in samples:
        key = (s.scene_id, s.im_id, s.obj_id)
        if key in keys and s.metric_kind == "mssd":
            if not s.error_value <= rtol * diameters[s.obj_id]:
                raise CheckFailed(f"symmetry-equivalent estimate {key} has MSSD {s.error_value}")
            found.add(key)
    if found != keys:
        raise CheckFailed(f"no MSSD sample for {sorted(keys - found)}")


def check_same(seen: dict, key, value, what: str) -> None:
    """First value recorded under `key` is the reference; later ones must equal it."""
    if key not in seen:
        seen[key] = value
    elif seen[key] != value:
        raise CheckFailed(f"{what} for {key} changed between repeats")


def toy_macs(cfg) -> dict[str, int]:
    """Per-layer multiply-accumulates of the toy network, derived from its
    config alone (3x64x64 input, 3x3 convs, stride-2 backbone and regressor)."""
    bw = cfg.backbone_width
    hw = cfg.head_width - 8 * cfg.d_head
    pw = cfg.pnp_width - 4 * cfg.d_pnp
    total = cfg.regions + 6
    pnp_in = cfg.regions + 4
    return {
        "backbone.conv1": bw * 3 * 9 * 32 * 32,
        "backbone.conv2": bw * bw * 9 * 16 * 16,
        "backbone.conv3": bw * bw * 9 * 8 * 8,
        "head.conv1": hw * bw * 9 * 16 * 16,
        "head.conv2": hw * hw * 9 * 32 * 32,
        "head.conv3": hw * hw * 9 * 64 * 64,
        "head.out": total * hw * 64 * 64,
        "pnp.conv1": pw * pnp_in * 9 * 32 * 32,
        "pnp.conv2": pw * pw * 9 * 16 * 16,
        "pnp.conv3": pw * pw * 9 * 8 * 8,
        "pnp.fc1": 256 * pw * 8 * 8,
        "pnp.out": 9 * 256,
    }


def check_macs(per_layer: dict, total: int, expected: dict) -> None:
    """count_flops' MACs equal the config-derived count, layer by layer."""
    got = {name: m for name, (m, _) in per_layer.items() if m}
    if got != expected:
        diff = sorted(n for n in set(got) | set(expected) if got.get(n) != expected.get(n))
        raise CheckFailed(f"count_flops MACs differ from the config-derived count at {diff}")
    if total != sum(expected.values()):
        raise CheckFailed(f"count_flops total {total} != {sum(expected.values())}")


def check_loss_trace(trace, reference) -> None:
    """Loss trace repeats bit for bit and its last epoch is below its first."""
    trace = [float(v) for v in trace]
    if reference is not None and trace != reference:
        raise CheckFailed(f"fine-tune loss trace {trace} != first run {reference}")
    if not (len(trace) >= 2 and np.isfinite(trace).all() and trace[-1] < trace[0]):
        raise CheckFailed(f"fine-tune loss did not fall: {trace}")
