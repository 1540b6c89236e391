"""Acceptance suite: one test per release criterion, each at its stated
tolerance, printing one PASS/FAIL line (run with `pytest -s` to stream them).

The original street-view dataset is private, so the criteria run on seeded
synthetic objects and scenes at desk scale.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest

from lidarshape.cli import main
from lidarshape.core import Histogram1D, PointCloud, Transform4DOF, apply_transform, emd_1d, save_cloud
from lidarshape.alignment import ICPConfig, align_group, icp_4dof, similarity_matrix
from lidarshape.evaluate import (
    STRATEGIES,
    LabeledDataset,
    dataset_features,
    distance_matrix,
    group_stats,
    kind_distances,
)
from lidarshape.octree import OctreeConfig, build_octree
from lidarshape.roi import basic_filter, build_grid, refine_roi, tile_features, train_class_model
from lidarshape.shapedist import KINDS, SDConfig, exact_sd, hsd, measure_many, sd_ranges
from lidarshape.spinimage import CODE_COUNT, spin_image_at, spin_images, train_codebook
from lidarshape.synth import make_object, make_scene
from scipy.spatial import cKDTree

from _oracles import emd_lp, histogram_l1


def report(name, ok, detail=""):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


# ---------------------------------------------------------------------------
# 1. HSD fidelity
# ---------------------------------------------------------------------------


def test_hsd_fidelity_20_objects_under_60s():
    rng = np.random.default_rng(42)
    t0 = time.time()
    worst = {kind: 0.0 for kind in KINDS}
    for i in range(20):
        shape = ("sphere", "cylinder", "box")[i % 3]
        cloud = make_object(shape, 300, rng, size=1.0 + 0.2 * rng.uniform(-1, 1))
        ranges = sd_ranges(cloud.bbox_diagonal())
        root = build_octree(cloud, OctreeConfig(reps_per_node=8))
        for kind in KINDS:
            lo, hi = ranges[kind]
            cfg = SDConfig(lo=lo, hi=hi, seed=100 + i)
            gap = histogram_l1(
                exact_sd(cloud, kind, cfg).histogram,
                hsd(root, kind, 3, cfg).histogram,
            )
            worst[kind] = max(worst[kind], gap)
    elapsed = time.time() - t0
    ok = all(v <= 0.15 for v in worst.values()) and elapsed < 60.0
    detail = (
        "(worst L1 "
        + " ".join(f"{k}={v:.3f}" for k, v in worst.items())
        + f", {elapsed:.1f} s)"
    )
    report("HSD fidelity (L1 <= 0.15, < 60 s)", ok, detail)


# ---------------------------------------------------------------------------
# 2. HSD scalability
# ---------------------------------------------------------------------------


def test_hsd_scalability_100k_points():
    rng = np.random.default_rng(7)
    cloud = make_object("cylinder", 100_000, rng)
    n_pairs = math.comb(100_000, 2)
    budget = SDConfig().sample_budget
    enumeration_rejected = n_pairs > budget  # ~5e9 exhaustive pairs refused

    ranges = sd_ranges(cloud.bbox_diagonal())
    tracemalloc.start()
    t0 = time.time()
    root = build_octree(cloud)
    for kind in KINDS:
        lo, hi = ranges[kind]
        feat = hsd(root, kind, 3, SDConfig(lo=lo, hi=hi, seed=1))
        assert feat.histogram.total() == pytest.approx(1.0, abs=1e-9)
    elapsed = time.time() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    ok = enumeration_rejected and elapsed < 30.0 and peak < 1024**3
    report(
        "HSD scalability (100k pts, < 30 s, < 1 GB)",
        ok,
        f"({n_pairs:.1e} pairs > budget {budget}, {elapsed:.1f} s, peak {peak / 1e6:.0f} MB)",
    )


# ---------------------------------------------------------------------------
# 3. analytic measurements
# ---------------------------------------------------------------------------


def test_analytic_measurements():
    def measure(kind, pts):  # one tuple through the kernel, as one-column (3, 1) arrays
        return float(measure_many(kind, [np.asarray(p, dtype=np.float64)[:, None] for p in pts])[0][0])

    r3 = measure("R3", [(0, 0, 0), (2, 0, 0), (1, math.sqrt(3), 0)])
    t3 = measure("T3", [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    d2 = measure("D2", [(0, 0, 0), (3, 4, 0)])
    ok = (
        abs(r3 - 1 / math.sqrt(3)) <= 1e-9
        and abs(t3 - 1 / 6) <= 1e-12
        and d2 == 5.0
    )
    report(
        "Analytic measurements (R3, T3, D2)",
        ok,
        f"(R3={r3!r}, T3={t3!r}, D2={d2!r})",
    )


# ---------------------------------------------------------------------------
# 4. EMD correctness
# ---------------------------------------------------------------------------


def test_emd_against_lp_200_pairs():
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(200):
        bins = int(rng.integers(2, 7))
        a = rng.uniform(0, 1, bins)
        b = rng.uniform(0, 1, bins)
        ha = Histogram1D(0.0, float(bins), a / a.sum())
        hb = Histogram1D(0.0, float(bins), b / b.sum())
        gap = abs(emd_1d(ha, hb) - emd_lp(ha.mass, hb.mass, ha.bin_width))
        worst = max(worst, gap)
    ok = worst <= 1e-9
    report("EMD vs transportation LP (200 pairs, 1e-9)", ok, f"(worst gap {worst:.2e})")


# ---------------------------------------------------------------------------
# 5. ICP recovery
# ---------------------------------------------------------------------------


def test_icp_recovery_50_trials():
    rng = np.random.default_rng(37)
    good = 0
    monotone = True
    for _ in range(50):
        cloud = make_object("lshape", 150, rng, jitter=0.0)
        diam = cloud.bbox_diagonal()
        planted = Transform4DOF(
            tx=rng.uniform(-0.1 * diam, 0.1 * diam),
            ty=rng.uniform(-0.1 * diam, 0.1 * diam),
            tz=rng.uniform(-0.1 * diam, 0.1 * diam),
            theta=rng.uniform(-math.radians(30), math.radians(30)),
        )
        noisy = apply_transform(cloud, planted).points + rng.normal(
            scale=0.01 * diam, size=(len(cloud), 3)
        )
        t, series = icp_4dof(cloud, PointCloud(noisy))
        monotone &= all(
            series[i + 1] <= series[i] + 1e-12 for i in range(len(series) - 1)
        )
        theta_err = abs(Transform4DOF(theta=t.theta - planted.theta).theta)
        trans_err = math.dist(
            (t.tx, t.ty, t.tz), (planted.tx, planted.ty, planted.tz)
        )
        if theta_err < math.radians(2) and trans_err < 0.05 * diam:
            good += 1
    ok = good >= 48 and monotone
    report(
        "ICP planted-transform recovery (>= 48/50, monotone RMS)",
        ok,
        f"({good}/50 recovered, monotone={monotone})",
    )


# ---------------------------------------------------------------------------
# 6. group alignment
# ---------------------------------------------------------------------------


def test_group_alignment_four_copies():
    rng = np.random.default_rng(59)
    base = make_object("lshape", 200, rng, jitter=0.0)
    diam = base.bbox_diagonal()
    objs = [base]
    for _ in range(3):
        t = Transform4DOF(
            tx=rng.uniform(-0.3 * diam, 0.3 * diam),
            ty=rng.uniform(-0.3 * diam, 0.3 * diam),
            tz=rng.uniform(-0.3 * diam, 0.3 * diam),
            theta=rng.uniform(-math.radians(25), math.radians(25)),
        )
        objs.append(apply_transform(base, t))
    out = align_group(objs, similarity_matrix(objs, SDConfig(sample_budget=2_000)))
    aligned = [t.apply_points(o.points) for t, o in zip(out.transforms, objs)]
    worst = max(
        float(cKDTree(aligned[j]).query(aligned[i])[0].mean())
        for i in range(4)
        for j in range(4)
        if i != j
    )
    ok = worst <= 0.05 * diam and len(out.merges) == len(objs) - 1
    report(
        "Group alignment (mean NN dist <= 0.05 diam, n-1 merges)",
        ok,
        f"(worst mean NN {worst / diam:.4f} diam, {len(out.merges)} merges)",
    )


# ---------------------------------------------------------------------------
# 7. evaluation separation
# ---------------------------------------------------------------------------


def test_eval_separation_three_classes_under_5min():
    from lidarshape.synth import make_dataset

    t0 = time.time()
    objs = make_dataset({"sphere": 30, "cylinder": 30, "box": 30}, n_points=300, seed=77)
    ds = LabeledDataset(tuple((o, o.label) for o in objs))
    cfg = SDConfig(seed=7)
    worst = 0.0
    for mode in ("exact", "hsd"):
        kinds = kind_distances(dataset_features(ds, mode, cfg))
        for strategy in STRATEGIES:
            m = distance_matrix(ds, kinds, strategy)
            for cs in group_stats(m, ds):
                worst = max(worst, cs.ratio)
    elapsed = time.time() - t0
    ok = worst < 1.0 and elapsed < 300.0
    report(
        "Evaluation separation (ratio < 1, both modes, < 5 min)",
        ok,
        f"(worst ratio {worst:.3f}, {elapsed:.0f} s)",
    )


# ---------------------------------------------------------------------------
# 8. spin-image invariance + PCA oracle
# ---------------------------------------------------------------------------


def test_spin_invariance_and_pca_oracle():
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.uniform(-1, 1, size=(100, 3)))
    radius = 1.5
    base = spin_images(cloud, support_radius=radius)
    worst = 0.0
    for _ in range(3):
        t = Transform4DOF(
            tx=rng.uniform(-2, 2),
            ty=rng.uniform(-2, 2),
            tz=rng.uniform(-2, 2),
            theta=rng.uniform(-math.pi, math.pi),
        )
        moved = apply_transform(cloud, t)
        for i in range(100):
            img = spin_image_at(moved, i, support_radius=radius)
            worst = max(worst, float(np.abs(img - base[i]).max()))
    invariant_ok = worst < 1e-9

    data = rng.normal(size=(50, 31 * 16))
    images = np.abs(data).reshape(-1, 31, 16)
    cb = train_codebook(images)
    x = images.reshape(len(images), -1)
    xc = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(xc, full_matrices=False)
    oracle = vt[:CODE_COUNT]
    subspace_err = float(
        np.abs(cb.basis.T @ cb.basis - oracle.T @ oracle).max()
    )
    pca_ok = subspace_err < 1e-6

    ok = invariant_ok and pca_ok
    report(
        "Spin-image 4-DOF invariance + PCA subspace oracle",
        ok,
        f"(worst grid diff {worst:.1e}, subspace err {subspace_err:.1e})",
    )


# ---------------------------------------------------------------------------
# 9. ROI recall
# ---------------------------------------------------------------------------


def test_roi_recall_ten_scenes_and_k_nearest():
    missed = 0
    total = 0
    for seed in range(10):
        planted = make_scene(seed=1000 + seed)
        grid = build_grid(planted.scene, tile_size=planted.tile_size)
        feats = tile_features(grid, planted.scene)
        kept = {tuple(tile) for tile in grid.cells[basic_filter(feats)].tolist()}
        total += len(planted.object_tiles)
        missed += sum(1 for tile in planted.object_tiles if tile not in kept)
    recall_ok = missed == 0

    # K-nearest refinement returns exactly min(K, |candidates|)
    planted = make_scene(seed=2024)
    grid = build_grid(planted.scene, tile_size=planted.tile_size)
    feats = tile_features(grid, planted.scene)
    candidates = basic_filter(feats)
    model = train_class_model(feats.vectors()[candidates])
    k_ok = True
    for k in (1, 3, len(candidates), len(candidates) + 50):
        kept = refine_roi(candidates, feats, model, k_nearest=k)
        k_ok &= len(kept) == min(k, len(candidates))
    ok = recall_ok and k_ok
    report(
        "ROI recall (100% planted tiles, exact K-nearest counts)",
        ok,
        f"({total - missed}/{total} planted tiles kept, k_ok={k_ok})",
    )


# ---------------------------------------------------------------------------
# 10. CLI determinism
# ---------------------------------------------------------------------------


def test_cli_determinism_byte_identical(tmp_path):
    rng = np.random.default_rng(3)

    # inputs shared by both runs
    scene = make_scene(seed=5, extent_tiles=8, n_objects=4)
    scene_path = tmp_path / "scene.xyz"
    save_cloud(scene.scene, scene_path)
    lines = ["file_path,category"]
    for i, kind in enumerate(("sphere", "sphere", "box", "box")):
        cloud = make_object(kind, 120, rng)
        save_cloud(cloud, tmp_path / f"{kind}_{i}.xyz")
        lines.append(f"{kind}_{i}.xyz,{kind}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    obj_path = tmp_path / "sphere_0.xyz"

    commands = {
        "features": ["features", str(manifest), "--seed", "3"],
        "roi": ["roi", str(scene_path), "--refine-k", "3", "--seed", "3"],
        "align": ["align", str(manifest), "--seed", "3"],
        "eval": ["eval", str(manifest), "--strategy", "all", "--seed", "3"],
        "spin": ["spin", str(obj_path), "--train", "--seed", "3"],
        "synth": ["synth", "dataset", "--per-class", "2", "--points", "50", "--seed", "3"],
    }
    mismatches = []
    for name, argv in commands.items():
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}_{run}"
            code = main(argv + ["--out", str(out)])
            assert code == 0, f"{name} run {run} exited {code}"
            outputs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}
            )
        if outputs[0] != outputs[1]:
            mismatches.append(name)
    ok = not mismatches
    report(
        "CLI determinism (byte-identical reruns)",
        ok,
        f"(commands: {', '.join(commands)}{'; MISMATCH: ' + str(mismatches) if mismatches else ''})",
    )
