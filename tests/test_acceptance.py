"""End-to-end acceptance gate.

Each test prints one PASS/FAIL verdict line through the capture bypass, so
every criterion that runs reports its outcome even when a later assert goes
red. Tolerances and runtime budgets are pinned here and must not be loosened;
the narrative suites cover the same modules piecewise.
"""

import json
import math
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from fastpose import rng
from fastpose.bench import measure_latency
from fastpose.datio import (
    EstimateRecord,
    load_object_models,
    parse_gt_json,
    parse_result_csv,
    write_result_csv,
)
from fastpose.distill import (
    Adapter,
    DistillConfig,
    align_and_loss,
    distill_train,
    fine_tune,
    make_input_sampler,
    mse_loss,
    sgd_step,
)
from fastpose.geom import CameraIntrinsics, Pose, make_model
from fastpose.metrics import (
    ErrorSample,
    ThresholdGrid,
    average_recall,
    e_add,
    e_add_s,
    e_mspd,
    e_mssd,
    e_vsd,
    evaluate,
)
from fastpose.net import (
    ToyConfig,
    build_toy_backbone,
    build_toy_gdrn,
    build_toy_head,
    count_flops,
    count_params,
)
from fastpose.net.layers import Conv2D, GroupNorm
from fastpose.prune import PruneConfig, apply_prune, plan_prune
from fastpose.raster import render_distance_map

import oracles
from conftest import all_kinds_graph, random_mesh, random_model, random_pose, small_camera


def _verdict(capsys, number, ok, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {status} - {detail}", flush=True)


def _rotation_about(axis, angle):
    a = np.asarray(axis, dtype=np.float64)
    a = a / np.linalg.norm(a)
    k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def _perturbed(gen, pose, max_angle, max_shift):
    rot = _rotation_about(gen.standard_normal(3), gen.uniform(0.0, max_angle))
    shift = gen.uniform(-max_shift, max_shift, 3)
    return Pose(rot @ pose.rotation, pose.translation + shift)


ROT90_Z = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def test_01_pose_error_metrics_match_brute_force(capsys):
    t0 = time.perf_counter()
    gen = np.random.default_rng(20260101)
    cam = small_camera(64, 48, fx=70.0, fy=75.0)
    failures = []
    for i in range(100):
        model = random_model(gen, max_vertices=12, max_symmetries=4)
        pe, pg = random_pose(gen), random_pose(gen)
        pairs = [
            ("add", e_add(model, pe, pg), oracles.add_reference(model, pe, pg)),
            ("add-s", e_add_s(model, pe, pg), oracles.add_s_reference(model, pe, pg)),
            ("mssd", e_mssd(model, pe, pg), oracles.mssd_reference(model, pe, pg)),
            ("mspd", e_mspd(model, pe, pg, cam), oracles.mspd_reference(model, pe, pg, cam)),
        ]
        for name, got, want in pairs:
            if got != want:
                failures.append(f"case {i} {name}: {got!r} != {want!r}")

    # Hand-checkable cases with exactly representable arithmetic.
    cube = make_model([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])
    t = np.array([0.0, 0.0, 500.0])
    shifted = Pose(np.eye(3), t + np.array([3.0, 4.0, 0.0]))
    if e_add(cube, shifted, Pose(np.eye(3), t)) != 5.0:
        failures.append("cube shift add != 5.0")
    turned = Pose(ROT90_Z, t)
    straight = Pose(np.eye(3), t)
    if e_add(cube, turned, straight) != 2.0:
        failures.append("cube quarter-turn add != 2.0")
    if e_add_s(cube, turned, straight) != 0.0:
        failures.append("cube quarter-turn add-s != 0.0")
    sym_cube = make_model(cube.vertices, symmetries=[np.c_[ROT90_Z, np.zeros(3)]])
    if e_mssd(sym_cube, turned, straight) != 0.0:
        failures.append("symmetry-aware mssd != 0.0")
    point = make_model([[0.0, 0.0, 0.0]])
    px_cam = CameraIntrinsics(fx=100.0, fy=100.0, cx=0.0, cy=0.0, width=640, height=480)
    got = e_mspd(point, Pose(np.eye(3), [5.0, 0.0, 100.0]), Pose(np.eye(3), [0.0, 0.0, 100.0]), px_cam)
    if got != 5.0:
        failures.append(f"single-point mspd != 5.0 (got {got!r})")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 10.0
    _verdict(capsys, 1, ok,
             f"100 random instances + hand cases, exact match, {elapsed:.1f}s (budget 10s)")
    assert not failures, failures[:5]
    assert elapsed < 10.0


def test_02_depth_discrepancy_matches_pixel_reference(capsys):
    t0 = time.perf_counter()
    gen = np.random.default_rng(20260202)
    cam = small_camera(32, 24, fx=40.0, fy=42.0)
    fractions = ThresholdGrid.bop_default().vsd_taus
    failures = []
    worst = 0.0
    for i in range(50):
        model = random_mesh(gen, max_vertices=10, max_triangles=8, span=40.0)
        pg = random_pose(gen, z_range=(220.0, 420.0), xy_span=15.0)
        if i % 5 == 0:
            pe = _perturbed(gen, pg, max_angle=math.pi, max_shift=60.0)
        else:
            pe = _perturbed(gen, pg, max_angle=0.35, max_shift=12.0)
        taus = [f * model.diameter for f in fractions]
        got = e_vsd(model, pe, pg, cam, taus)
        d_est = render_distance_map(model, pe, cam)
        d_gt = render_distance_map(model, pg, cam)
        want = oracles.vsd_reference(d_est.depth, d_est.visible, d_gt.depth, d_gt.visible, taus)
        for k, (g_k, w_k) in enumerate(zip(got, want)):
            worst = max(worst, abs(g_k - w_k))
            if abs(g_k - w_k) > 1e-9:
                failures.append(f"pair {i} tau[{k}]: {g_k!r} vs {w_k!r}")
        # A larger misalignment tolerance can never flag more pixels.
        for k in range(len(got) - 1):
            if got[k + 1] > got[k]:
                failures.append(f"pair {i}: error rose from tau[{k}] to tau[{k + 1}]")
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 30.0
    _verdict(capsys, 2, ok,
             f"50 pose pairs, worst |diff|={worst:.2e} (tol 1e-9), monotone in tau, "
             f"{elapsed:.1f}s (budget 30s)")
    assert not failures, failures[:5]
    assert elapsed < 30.0


def test_03_threshold_grids_and_hand_recall_fixture(capsys):
    failures = []
    grid = ThresholdGrid.bop_default()
    steps10 = tuple(k / 20.0 for k in range(1, 11))
    if grid.vsd_taus != steps10:
        failures.append("vsd tau fractions wrong")
    if grid.vsd_correctness != steps10:
        failures.append("vsd correctness thresholds wrong")
    if len(grid.vsd_taus) * len(grid.vsd_correctness) != 100:
        failures.append("vsd grid is not 10x10")
    if grid.mssd_correctness != steps10:
        failures.append("mssd fractions wrong")
    if grid.mspd_correctness != tuple(5.0 * k for k in range(1, 11)):
        failures.append("mspd pixel thresholds wrong")
    if grid.add_correctness != (0.02, 0.05, 0.10):
        failures.append("add fractions wrong")
    if grid.r != 1.0 or ThresholdGrid.bop_default(image_width=320).r != 0.5:
        failures.append("image-width scale factor wrong")

    # Three instances of one object with diameter 100; every recall is
    # countable by hand against the strict-inequality rule.
    samples = []
    for im_id, (mssd_e, mspd_e, vsd_e, add_e) in enumerate(
        [(12.0, 3.0, 0.03, 1.0), (27.0, 27.0, 0.30, 3.0), (60.0, 60.0, 0.77, 8.0)], start=1
    ):
        samples += [
            ErrorSample(1, im_id, 1, "mssd", error_value=mssd_e),
            ErrorSample(1, im_id, 1, "mspd", error_value=mspd_e),
            ErrorSample(1, im_id, 1, "vsd", vsd_errors=(vsd_e,) * 10),
            ErrorSample(1, im_id, 1, "add", error_value=add_e),
        ]
    rep = average_recall(samples, grid, {1: 100.0})
    # mssd thresholds 5..50: per-threshold pass counts 0,0,1,1,1,2,2,2,2,2.
    # mspd thresholds 5..50: counts 1,1,1,1,1,2,2,2,2,2 (27 < 30 but not < 25).
    # vsd thresholds .05...50 per tau row: counts 1,1,1,1,1,1,2,2,2,2
    # (0.30 is not strictly below 0.30). add thresholds 2,5,10: counts 1,2,3.
    expected = {
        "ar_mssd": 13.0 / 30.0,
        "ar_mspd": 15.0 / 30.0,
        "ar_vsd": 14.0 / 30.0,
        "ar_bop": (13.0 / 30.0 + 15.0 / 30.0 + 14.0 / 30.0) / 3.0,
        "ar_add": 2.0 / 3.0,
    }
    got = {key: getattr(rep, key) for key in expected}
    for key, want in expected.items():
        if abs(got[key] - want) > 1e-12:
            failures.append(f"{key}: {got[key]!r} != {want!r}")
    table = rep.per_object[0].vsd_recall
    if len(table) != 10 or any(len(row) != 10 for row in table):
        failures.append("per-object vsd recall table is not 10x10")

    ok = not failures
    _verdict(capsys, 3, ok,
             f"default grids exact, hand fixture ar_bop={got['ar_bop']:.12f} "
             f"(expect {expected['ar_bop']:.12f}, tol 1e-12)")
    assert not failures, failures


def test_04_gradients_match_finite_differences(capsys):
    t0 = time.perf_counter()
    failures = []
    worst = 0.0

    def check(tag, analytic, numeric):
        nonlocal worst
        err = oracles.gradcheck_rel_err(analytic, numeric)
        worst = max(worst, err)
        if err > 1e-4:
            failures.append(f"{tag}: rel err {err:.3e}")

    for seed in range(20):
        g = all_kinds_graph(seed)
        gen = np.random.default_rng(9000 + seed)
        x = gen.standard_normal((2, 6, 6)).astype(np.float64)
        coef = gen.standard_normal(3).astype(np.float64)
        grads, gx = g.backward(g.forward(x, record=True)[1], coef)

        def loss():
            return float(np.dot(g.forward(x), coef))

        for layer in g.layers:
            for key, arr in layer.params().items():
                n_idx = min(arr.size, 8)
                picks = gen.choice(arr.size, size=n_idx, replace=False)
                for flat in picks:
                    idx = np.unravel_index(int(flat), arr.shape)
                    num = oracles.central_difference(loss, arr, idx)
                    check(f"seed {seed} {layer.name}.{key}{idx}",
                          grads[layer.name][key][idx], num)
        for flat in gen.choice(x.size, size=6, replace=False):
            idx = np.unravel_index(int(flat), x.shape)
            num = oracles.central_difference(loss, x, idx)
            check(f"seed {seed} input{idx}", gx[idx], num)

        # The output-regression loss, full-gradient check.
        a = gen.standard_normal((3, 2, 2))
        b = gen.standard_normal((3, 2, 2))
        _, grad = mse_loss(a, b)
        for flat in range(a.size):
            idx = np.unravel_index(flat, a.shape)
            num = oracles.central_difference(lambda: mse_loss(a, b)[0], a, idx)
            check(f"seed {seed} mse{idx}", grad[idx], num)

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _verdict(capsys, 4, ok,
             f"20 seeds, every layer kind + the mse loss, worst rel err {worst:.2e} "
             f"(tol 1e-4), {elapsed:.1f}s (budget 60s)")
    assert not failures, failures[:5]
    assert elapsed < 60.0


def test_05_prune_fuzz_counts_and_zero_path(capsys):
    t0 = time.perf_counter()
    gen = np.random.default_rng(20260505)
    failures = []
    for i in range(200):
        cfg = ToyConfig(
            backbone_width=8 * int(gen.integers(1, 3)),
            head_width=8 * int(gen.integers(2, 6)),
            pnp_width=4 * int(gen.integers(1, 4)),
            regions=int(gen.integers(1, 7)),
            seed=int(gen.integers(0, 1000)),
        )
        d_head = int(gen.integers(0, cfg.head_width // 8))
        d_pnp = int(gen.integers(0, cfg.pnp_width // 4))
        graph = build_toy_gdrn(cfg)
        plan = plan_prune(graph, PruneConfig(target="both", d_head=d_head, d_pnp=d_pnp))
        pruned = apply_prune(graph, plan)

        flops = count_flops(pruned)
        if flops.total_macs != oracles.graph_macs_reference(pruned):
            failures.append(f"case {i}: MAC count disagrees with loop oracle")
        if count_params(pruned) != oracles.params_reference(pruned):
            failures.append(f"case {i}: param count disagrees with loop oracle")

        rebuilt = build_toy_gdrn(replace(cfg, d_head=d_head, d_pnp=d_pnp))
        if count_flops(rebuilt).total_macs != flops.total_macs:
            failures.append(f"case {i}: pruned MACs != built-at-degree MACs")
        if count_params(rebuilt) != count_params(pruned):
            failures.append(f"case {i}: pruned params != built-at-degree params")

        for layer in pruned.layers:
            if isinstance(layer, Conv2D) and layer.weight.shape[0] != layer.bias.size:
                failures.append(f"case {i}: conv {layer.name} weight/bias mismatch")
            if isinstance(layer, GroupNorm):
                if layer.gamma.size != layer.beta.size or layer.gamma.size % layer.group_size:
                    failures.append(f"case {i}: norm {layer.name} group misalignment")
        meta_cfg = ToyConfig.from_dict(pruned.meta["toy_config"])
        if meta_cfg.d_head != d_head or meta_cfg.d_pnp != d_pnp:
            failures.append(f"case {i}: metadata degrees not updated")

        x = gen.standard_normal((3, 64, 64)).astype(np.float32)
        zeroed = oracles.zero_path_reference(graph, plan)
        gap = float(np.abs(pruned.forward(x) - zeroed.forward(x)).max())
        if gap > 1e-6:
            failures.append(f"case {i}: zero-path gap {gap:.2e}")

    # Removing one more group must strictly shrink both counts.
    for cfg in (ToyConfig(backbone_width=8, head_width=32, pnp_width=12, regions=3),
                ToyConfig(backbone_width=16, head_width=40, pnp_width=8, regions=1)):
        graph = build_toy_gdrn(cfg)
        macs, params = [], []
        for d in range(cfg.head_width // 8):
            plan = plan_prune(graph, PruneConfig(target="head", d_head=d))
            slim = apply_prune(graph, plan)
            macs.append(count_flops(slim).total_macs)
            params.append(count_params(slim))
        if not all(a > b for a, b in zip(macs, macs[1:])):
            failures.append(f"{cfg}: MACs not strictly decreasing in head degree")
        if not all(a > b for a, b in zip(params, params[1:])):
            failures.append(f"{cfg}: params not strictly decreasing in head degree")
        macs = []
        for d in range(cfg.pnp_width // 4):
            plan = plan_prune(graph, PruneConfig(target="pnp", d_pnp=d))
            macs.append(count_flops(apply_prune(graph, plan)).total_macs)
        if not all(a > b for a, b in zip(macs, macs[1:])):
            failures.append(f"{cfg}: MACs not strictly decreasing in regressor degree")

    elapsed = time.perf_counter() - t0
    ok = not failures
    _verdict(capsys, 5, ok,
             f"200 random config/degree pairs: exact counts, structure, zero-path "
             f"within 1e-6, strict monotonicity, {elapsed:.1f}s")
    assert not failures, failures[:5]


def test_06_fine_tuning_recovers_pruned_head(capsys):
    t0 = time.perf_counter()
    cfg = ToyConfig(backbone_width=8, head_width=96, regions=1, seed=2)
    reference = build_toy_head(cfg)
    inputs = make_input_sampler(reference.input_shape, 64, seed=6060)
    targets = [reference.forward(x) for x in inputs]

    def mean_mse(g):
        return float(np.mean([mse_loss(g.forward(x), t)[0] for x, t in zip(inputs, targets)]))

    plan = plan_prune(reference, PruneConfig(target="head", d_head=8))
    pruned = apply_prune(reference, plan)
    pre = mean_mse(pruned)
    # 50 epochs total, stepping the rate down so the per-sample updates
    # settle instead of bouncing around the optimum.
    epochs = 0
    for n, lr in ((20, 0.1), (15, 0.03), (15, 0.01)):
        _, trace = fine_tune(pruned, reference, DistillConfig(learning_rate=lr, epochs=n), inputs)
        assert len(trace) == n
        epochs += n
    post = mean_mse(pruned)
    elapsed = time.perf_counter() - t0
    ratio = post / pre
    ok = epochs == 50 and ratio < 0.25 and elapsed < 300.0
    _verdict(capsys, 6, ok,
             f"pruned-head MSE {pre:.4f} -> {post:.4f}, ratio {ratio:.3f} "
             f"(need < 0.25), {elapsed:.0f}s (budget 300s)")
    assert epochs == 50
    assert ratio < 0.25
    assert elapsed < 300.0


def test_07_feature_alignment_beats_controls(capsys):
    t0 = time.perf_counter()
    teacher = build_toy_backbone(ToyConfig(backbone_width=32, seed=707))
    shape = teacher.input_shape
    lr, epochs, n_inputs = 0.1, 12, 4

    def align_score(student, adapter, inputs, targets):
        return float(np.mean([
            align_and_loss(student.forward(x), t, adapter)[0]
            for x, t in zip(inputs, targets)
        ]))

    wins_fresh = wins_noise = 0
    for seed in range(20):
        inputs = make_input_sampler(shape, n_inputs, seed=7000 + seed)
        targets = [teacher.forward(x) for x in inputs]

        student_cfg = ToyConfig(backbone_width=16, seed=100 + seed)
        trained = build_toy_backbone(student_cfg)
        adapter = Adapter.create(16, 32, seed=seed)
        distill_train(teacher, trained, adapter,
                      DistillConfig(learning_rate=lr, epochs=epochs), inputs)
        s_trained = align_score(trained, adapter, inputs, targets)

        fresh = build_toy_backbone(ToyConfig(backbone_width=16, seed=5000 + seed))
        fresh_adapter = Adapter.create(16, 32, seed=900 + seed)
        if s_trained < align_score(fresh, fresh_adapter, inputs, targets):
            wins_fresh += 1

        # Same starting point and budget, but the targets are pure noise:
        # any advantage over this control comes from the teacher signal.
        noisy = build_toy_backbone(student_cfg)
        noisy_adapter = Adapter.create(16, 32, seed=seed)
        ngen = rng.derive(seed, "noise-targets")
        noise_targets = [ngen.standard_normal(t.shape).astype(np.float32) for t in targets]
        for _ in range(epochs):
            for x, tgt in zip(inputs, noise_targets):
                out, tape = noisy.forward(x, record=True)
                _, gout, agrads = align_and_loss(out, tgt, noisy_adapter)
                grads, _ = noisy.backward(tape, gout)
                sgd_step(noisy, grads, lr)
                for key, gv in agrads.items():
                    noisy_adapter.conv.set_param(
                        key, noisy_adapter.conv.params()[key] - lr * gv)
        if s_trained < align_score(noisy, noisy_adapter, inputs, targets):
            wins_noise += 1

    elapsed = time.perf_counter() - t0
    ok = wins_fresh == 20 and wins_noise >= 18
    _verdict(capsys, 7, ok,
             f"lower teacher-feature loss than untrained {wins_fresh}/20 (need 20) "
             f"and noise-trained {wins_noise}/20 (need >= 18), {elapsed:.0f}s")
    assert wins_fresh == 20
    assert wins_noise >= 18


def test_08_pruned_pipeline_is_faster_and_lighter(capsys):
    base = build_toy_gdrn(ToyConfig(seed=808))
    plan = plan_prune(base, PruneConfig(target="head", d_head=28))
    slim = apply_prune(base, plan)

    f_base = count_flops(base).total_macs
    f_slim = count_flops(slim).total_macs
    r_base = measure_latency(base, iterations=200, warmup=10, label="degree-0", seed=88)
    r_slim = measure_latency(slim, iterations=200, warmup=10, label="degree-28", seed=88)

    drop = 1.0 - r_slim.median_ms / r_base.median_ms
    ok = f_slim < f_base and r_slim.median_ms <= 0.9 * r_base.median_ms
    _verdict(capsys, 8, ok,
             f"median {r_base.median_ms:.1f}ms -> {r_slim.median_ms:.1f}ms "
             f"({drop:.0%} drop, need >= 10%), MACs {f_base} -> {f_slim} (strictly lower)")
    assert f_slim < f_base
    assert r_slim.median_ms <= 0.9 * r_base.median_ms


def _ply_text(model):
    lines = [
        "ply", "format ascii 1.0",
        f"element vertex {len(model.vertices)}",
        "property float x", "property float y", "property float z",
        f"element face {len(model.triangles)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    lines += [f"{float(v[0])!r} {float(v[1])!r} {float(v[2])!r}" for v in model.vertices]
    lines += [f"3 {t[0]} {t[1]} {t[2]}" for t in model.triangles]
    return "\n".join(lines) + "\n"


def _build_eval_fixture(tmp_path):
    gen = np.random.default_rng(20260909)
    mesh_dir = tmp_path / "meshes"
    mesh_dir.mkdir()
    meshes = {}
    for obj_id in range(1, 6):
        model = random_mesh(gen, max_vertices=10, max_triangles=8, span=30.0)
        (mesh_dir / f"obj_{obj_id:06d}.ply").write_text(_ply_text(model), encoding="utf-8")
        meshes[obj_id] = model

    rot_z180 = [-1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    rot_z90 = [0.0, -1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
    objects = {
        "1": {},
        "2": {"symmetries": [rot_z180]},
        "3": {"symmetric": True},
        "4": {"symmetric": True, "symmetries": [rot_z90]},
        "5": {"diameter": float(meshes[5].diameter)},
    }

    cam_k = [55.0, 0.0, 24.0, 0.0, 60.0, 18.0, 0.0, 0.0, 1.0]
    instances = []
    gt_poses = {}
    for im_id in range(1, 21):
        present = 1 + gen.choice(5, size=int(gen.integers(2, 4)), replace=False)
        for obj_id in sorted(int(o) for o in present):
            pose = random_pose(gen, z_range=(260.0, 480.0), xy_span=18.0)
            gt_poses[(3, im_id, obj_id)] = pose
            instances.append({
                "scene_id": 3, "im_id": im_id, "obj_id": obj_id,
                "cam_K": cam_k, "im_size": [48, 36],
                "cam_R_m2c": [float(v) for v in pose.rotation.ravel()],
                "cam_t_m2c": [float(v) for v in pose.translation],
            })
    gt_path = tmp_path / "gt.json"
    gt_path.write_text(json.dumps({"instances": instances, "objects": objects}),
                       encoding="utf-8")

    estimates = []
    extras = 0
    for n, ((scene, im_id, obj_id), pose) in enumerate(sorted(gt_poses.items())):
        if n % 7 == 3:
            continue  # withheld: becomes a missing detection
        big = n % 4 == 0
        est_pose = _perturbed(gen, pose, 0.6 if big else 0.15, 30.0 if big else 6.0)
        estimates.append(EstimateRecord(scene, im_id, obj_id,
                                        float(gen.uniform(0.3, 1.0)), est_pose))
        if n % 6 == 1:  # duplicate with its own score; best one must win
            dup = _perturbed(gen, pose, 0.4, 20.0)
            estimates.append(EstimateRecord(scene, im_id, obj_id,
                                            float(gen.uniform(0.3, 1.0)), dup))
    for obj_id in (1, 2, 9):  # no matching ground truth: image 999 never exists
        estimates.append(EstimateRecord(3, 999, obj_id, 0.5, random_pose(gen)))
        extras += 1
    res_path = tmp_path / "estimates.csv"
    write_result_csv(res_path, estimates)
    return gt_path, mesh_dir, res_path, extras


def test_09_dataset_evaluation_matches_scripted_reference(tmp_path, capsys):
    t0 = time.perf_counter()
    gt_path, mesh_dir, res_path, n_extra = _build_eval_fixture(tmp_path)

    records, objects = parse_gt_json(gt_path)
    models = load_object_models(mesh_dir, objects)
    estimates = parse_result_csv(res_path)
    result = evaluate(estimates, records, models)
    ref = oracles.evaluate_reference(estimates, records, models, result.report.grid)

    failures = []
    if result.n_extra != n_extra:
        failures.append(f"extra estimates {result.n_extra} != {n_extra}")
    if result.n_missing == 0 or result.n_matched == 0:
        failures.append("fixture must exercise both matched and missing instances")
    for key in ("ar_vsd", "ar_mssd", "ar_mspd", "ar_bop", "ar_add"):
        got = getattr(result.report, key)
        if abs(got - ref[key]) > 1e-9:
            failures.append(f"{key}: {got!r} vs reference {ref[key]!r}")

    cmd = [sys.executable, "-m", "fastpose.cli", "eval",
           "--gt", str(gt_path), "--models", str(mesh_dir),
           "--results", str(res_path), "--format", "json"]
    outputs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}.json"
        proc = subprocess.run(cmd + ["--out", str(out)], capture_output=True, text=True)
        if proc.returncode != 0:
            failures.append(f"cli run {run} exited {proc.returncode}: {proc.stderr[:200]}")
            break
        outputs.append(out.read_bytes())
    if len(outputs) == 2 and outputs[0] != outputs[1]:
        failures.append("two cli runs produced different bytes")

    elapsed = time.perf_counter() - t0
    ok = not failures
    detail = (f"ar_bop={result.report.ar_bop:.9f} vs scripted reference "
              f"|diff|<=1e-9, byte-identical reruns, {elapsed:.0f}s")
    _verdict(capsys, 9, ok, detail)
    assert not failures, failures
