import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import lidarshape
from lidarshape.cli import RunConfig, main
from lidarshape.core import PointCloud, save_cloud
from lidarshape.shapedist import MAX_SAMPLE_BUDGET, SDConfig
from lidarshape.synth import make_object, make_scene


@pytest.fixture
def object_file(tmp_path):
    rng = np.random.default_rng(3)
    cloud = make_object("box", 120, rng)
    path = tmp_path / "box.xyz"
    save_cloud(cloud, path)
    return path


@pytest.fixture
def manifest(tmp_path):
    rng = np.random.default_rng(5)
    lines = ["file_path,category"]
    for i, kind in enumerate(("sphere", "sphere", "box", "box")):
        cloud = make_object(kind, 100, rng)
        name = f"{kind}_{i}.xyz"
        save_cloud(cloud, tmp_path / name)
        lines.append(f"{name},{kind}")
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def read_all_csvs(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.glob("*.csv"))}


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------


def test_config_defaults_and_parsing(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 7\nbins = 32\n# comment\ntile_size = 2.5\n")
    cfg = RunConfig.load(cfg_file)
    assert cfg.seed == 7
    assert cfg.bins == 32
    assert cfg.tile_size == 2.5
    assert cfg.sample_budget == 200_000  # untouched default


def test_config_rejects_unknown_key(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("no_such_knob = 3\n")
    with pytest.raises(ValueError, match="unknown config key"):
        RunConfig.load(cfg_file)


def test_config_rejects_bad_value(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("bins = many\n")
    with pytest.raises(ValueError, match="bad value"):
        RunConfig.load(cfg_file)


@pytest.mark.parametrize(
    "line, message",
    [
        ("sample_budget = 1000000000", "sample_budget must be in 1..10000000, got 1000000000"),
        ("bins = 1", "bins must be >= 2, got 1"),
        ("octree_leaf_capacity = 0", "octree parameters must be positive"),
        ("icp_max_iters = 0", "max_iters must be >= 1, got 0"),
        ("icp_trim_fraction = 1.5", "trim_fraction must be in [0, 1), got 1.5"),
        ("parts_k = 0", "parts_k must be positive, got 0"),
        ("threads = 0", "threads must be positive, got 0"),
        ("hsd_level = 0", "hsd_level must be positive, got 0"),
        ("tile_size = 0", "tile_size must be positive, got 0.0"),
        ("tile_size = nan", "tile_size must be positive, got nan"),
        ("feature_mode = bogus", "feature_mode must be one of ('exact', 'hsd'), got 'bogus'"),
        (
            "strategy = bogus",
            "strategy must be one of ('average', 'smallest', 'biggest', 'all'), got 'bogus'",
        ),
        (
            "spin_codebook_kind = bogus",
            "spin_codebook_kind must be one of ('whole-image', 'patch-11x11'), got 'bogus'",
        ),
        ("spin_support_radius = -2", "spin_support_radius must be finite and >= 0, got -2.0"),
        ("spin_support_radius = nan", "spin_support_radius must be finite and >= 0, got nan"),
        ("icp_rms_tol = -1", "icp_rms_tol must be finite and >= 0, got -1.0"),
        ("icp_rms_tol = nan", "icp_rms_tol must be finite and >= 0, got nan"),
        ("icp_rms_tol = inf", "icp_rms_tol must be finite and >= 0, got inf"),
    ],
)
def test_config_rejects_out_of_range_value_at_its_line(tmp_path, object_file, capsys, line, message):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"seed = 3\n{line}\n")
    with pytest.raises(ValueError, match=f"run.cfg:2: {re.escape(message)}"):
        RunConfig.load(cfg_file)
    argv = ["features", str(object_file), "--config", str(cfg_file), "--out", str(tmp_path / "f")]
    assert main(argv) == 2
    assert f"{cfg_file}:2: {message}" in capsys.readouterr().err
    assert not (tmp_path / "f").exists()


def test_threads_flag_must_be_positive(tmp_path, manifest, capsys):
    argv = ["eval", str(manifest), "--threads", "0", "--out", str(tmp_path / "e")]
    assert main(argv) == 2
    assert "argument --threads: must be positive, got 0" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_flag_overrides_config(tmp_path, object_file):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 5\nfeature_mode = exact\n")
    out = tmp_path / "out_a"
    code = main(
        ["features", str(object_file), "--config", str(cfg_file), "--mode", "hsd",
         "--out", str(out)]
    )
    assert code == 0
    # hsd mode was used: rerunning in config mode gives a different CSV
    out_b = tmp_path / "out_b"
    main(["features", str(object_file), "--config", str(cfg_file), "--out", str(out_b)])
    a = (out / "features_box.csv").read_bytes()
    b = (out_b / "features_box.csv").read_bytes()
    assert a != b


# ---------------------------------------------------------------------------
# features
# ---------------------------------------------------------------------------


def test_features_single_cloud(tmp_path, object_file):
    out = tmp_path / "feat"
    assert main(["features", str(object_file), "--out", str(out)]) == 0
    csv = out / "features_box.csv"
    assert csv.is_file()
    lines = csv.read_text().splitlines()
    assert lines[0] == "kind,bin_index,bin_lo,bin_hi,mass"
    assert len(lines) == 1 + 4 * 64


def test_features_missing_file(tmp_path, capsys):
    out = tmp_path / "feat"
    code = main(["features", str(tmp_path / "ghost.xyz"), "--out", str(out)])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["abc", "-2"])
def test_features_bad_ply_vertex_count_exits_2_naming_file_and_line(tmp_path, capsys, count):
    path = tmp_path / "v.ply"
    path.write_text(
        f"ply\nformat ascii 1.0\nelement vertex {count}\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n0 0 0\n"
    )
    code = main(["features", str(path), "--out", str(tmp_path / "feat")])
    assert code == 2
    assert f"{path}:3: vertex count must be a non-negative integer" in capsys.readouterr().err


def test_features_manifest(tmp_path, manifest):
    out = tmp_path / "feat"
    assert main(["features", str(manifest), "--out", str(out)]) == 0
    assert len(list(out.glob("features_*.csv"))) == 4


def test_features_exact_vs_hsd_l1_gap(tmp_path):
    """Pipeline-level check: the two mode CSVs stay within the HSD fidelity
    bound of each other."""
    rng = np.random.default_rng(7)
    cloud = make_object("cylinder", 300, rng)
    path = tmp_path / "cyl.xyz"
    save_cloud(cloud, path)

    masses = {}
    for mode in ("exact", "hsd"):
        out = tmp_path / mode
        assert main(["features", str(path), "--mode", mode, "--out", str(out)]) == 0
        per_kind = {}
        for line in (out / "features_cyl.csv").read_text().splitlines()[1:]:
            kind, _, _, _, mass = line.split(",")
            per_kind.setdefault(kind, []).append(float(mass))
        masses[mode] = per_kind
    for kind in masses["exact"]:
        gap = np.abs(
            np.array(masses["exact"][kind]) - np.array(masses["hsd"][kind])
        ).sum()
        assert gap <= 0.15, kind


# ---------------------------------------------------------------------------
# roi
# ---------------------------------------------------------------------------


def test_roi_scene(tmp_path):
    planted = make_scene(seed=11, extent_tiles=8, n_objects=4)
    scene_path = tmp_path / "scene.xyz"
    save_cloud(planted.scene, scene_path)
    out = tmp_path / "roi"
    assert main(["roi", str(scene_path), "--out", str(out)]) == 0

    csv_lines = (out / "roi.csv").read_text().splitlines()
    kept = {
        (int(f[0]), int(f[1]))
        for f in (line.split(",") for line in csv_lines[1:])
        if f[6] != "occupied"
    }
    for tile in planted.object_tiles:
        assert tile in kept

    pgm = (out / "mask.pgm").read_text().splitlines()
    w, h = (int(v) for v in pgm[1].split())
    assert len(" ".join(pgm[3:]).split()) == w * h


def test_roi_no_candidates_still_writes_header(tmp_path):
    rng = np.random.default_rng(13)
    flat = np.column_stack(
        [rng.uniform(0, 3, 300), rng.uniform(0, 3, 300), rng.normal(0, 0.01, 300)]
    )
    scene_path = tmp_path / "flat.xyz"
    save_cloud(PointCloud(flat), scene_path)
    out = tmp_path / "roi"
    assert main(["roi", str(scene_path), "--out", str(out)]) == 0
    lines = (out / "roi.csv").read_text().splitlines()
    assert lines[0].startswith("tile_x")
    assert all(line.endswith("occupied") for line in lines[1:])


def test_roi_refine_k(tmp_path):
    planted = make_scene(seed=17, extent_tiles=8, n_objects=5)
    scene_path = tmp_path / "scene.xyz"
    save_cloud(planted.scene, scene_path)
    out = tmp_path / "roi"
    assert main(["roi", str(scene_path), "--refine-k", "2", "--out", str(out)]) == 0
    lines = (out / "roi.csv").read_text().splitlines()[1:]
    refined = [line for line in lines if line.endswith("refined")]
    assert len(refined) == 2


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--refine-k", "-1"], "k nearest must be non-negative, got -1"),
        (["--refine-tau", "nan"], "distance threshold must be a number, got nan"),
        (["--refine-k", "5", "--refine-tau", "1"], "not allowed with argument"),
    ],
)
def test_roi_hostile_refinement_exits_2(tmp_path, capsys, flags, message):
    planted = make_scene(seed=17, extent_tiles=8, n_objects=5)
    scene_path = tmp_path / "scene.xyz"
    save_cloud(planted.scene, scene_path)
    out = tmp_path / "roi"
    assert main(["roi", str(scene_path), *flags, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "roi.csv").exists()


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--refine-k", "-1"], "k nearest must be non-negative, got -1"),
        (["--refine-tau", "nan"], "distance threshold must be a number, got nan"),
    ],
)
def test_roi_hostile_refinement_exits_2_without_candidates(tmp_path, capsys, flags, message):
    # a flat 3 x 3-tile scene: no tile passes the basic filter, so no class
    # model is ever fitted, and the flags must still be rejected
    rng = np.random.default_rng(19)
    flat = np.column_stack([rng.uniform(0, 3, size=(300, 2)), np.zeros(300)])
    scene_path = tmp_path / "flat.xyz"
    save_cloud(PointCloud(flat), scene_path)
    out = tmp_path / "roi"
    assert main(["roi", str(scene_path), "--out", str(out)]) == 0
    assert "9 occupied tiles, 0 candidates" in capsys.readouterr().out
    assert main(["roi", str(scene_path), *flags, "--out", str(tmp_path / "bad")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "bad" / "roi.csv").exists()


def test_roi_far_outlier_exits_2_without_allocating_the_grid(tmp_path, capsys):
    # ~1e4 tiles apart on both axes: ~1e8 cells, about 800 MB as an int64 mask
    scene_path = tmp_path / "outlier.xyz"
    scene_path.write_text("0 0 0\n0.5 0.5 1\n10000.2 9999.7 0.5\n")
    out = tmp_path / "roi"
    tracemalloc.start()
    try:
        code = main(["roi", str(scene_path), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "10001 x 10000 tiles" in capsys.readouterr().err
    assert peak < 10_000_000
    assert not (out / "mask.pgm").exists()


def test_absurd_sample_budget_exits_2_without_allocating(tmp_path, object_file, capsys):
    # 120 points: C(120, 4) = 8.2M T3 tuples would be enumerated under 1e9
    with pytest.raises(ValueError, match="sample_budget"):
        SDConfig(sample_budget=MAX_SAMPLE_BUDGET + 1)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("sample_budget = 1000000000\n")
    argv = ["features", str(object_file), "--mode", "exact", "--config", str(cfg_file)]
    tracemalloc.start()
    try:
        code = main(argv + ["--out", str(tmp_path / "feat")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "sample_budget must be in 1..10000000, got 1000000000" in capsys.readouterr().err
    assert peak < 10_000_000


# ---------------------------------------------------------------------------
# align
# ---------------------------------------------------------------------------


def test_align_identical_pair(tmp_path):
    rng = np.random.default_rng(19)
    cloud = make_object("lshape", 150, rng)
    for name in ("a.xyz", "b.xyz"):
        save_cloud(cloud, tmp_path / name)
    manifest = tmp_path / "m.csv"
    manifest.write_text("a.xyz,thing\nb.xyz,thing\n")
    out = tmp_path / "align"
    assert main(["align", str(manifest), "--out", str(out), "--merged-out", "merged.xyz"]) == 0

    lines = (out / "transforms.csv").read_text().splitlines()
    assert lines[0] == "object_id,tx,ty,tz,theta"
    assert len(lines) == 3
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")[1:]]
        assert max(abs(v) for v in vals) < 1e-9

    merges = (out / "merges.csv").read_text().splitlines()
    assert len(merges) == 2  # header + 1 merge
    assert (out / "merged.xyz").is_file()


def test_align_structure_counts(tmp_path, manifest):
    out = tmp_path / "align"
    assert main(["align", str(manifest), "--out", str(out)]) == 0
    assert len((out / "transforms.csv").read_text().splitlines()) == 1 + 4
    assert len((out / "merges.csv").read_text().splitlines()) == 1 + 3
    assert len((out / "similarity.csv").read_text().splitlines()) == 1 + 4


def test_align_degenerate_objects_exit_1(tmp_path, capsys):
    # vertical lines: every point at one (x, y), so ICP has no rotation to fit
    z = np.linspace(0.0, 2.0, 5)[:, None]
    for name, xy in (("a.xyz", (0.0, 0.0)), ("b.xyz", (5.0, 5.0))):
        save_cloud(PointCloud(np.hstack([np.tile(xy, (5, 1)), z])), tmp_path / name)
    manifest = tmp_path / "m.csv"
    manifest.write_text("a.xyz,pole\nb.xyz,pole\n")
    code = main(["align", str(manifest), "--out", str(tmp_path / "align")])
    assert code == 1
    assert "internal error: degenerate correspondences" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_all_strategies(tmp_path, manifest):
    out = tmp_path / "eval"
    code = main(
        ["eval", str(manifest), "--strategy", "all", "--out", str(out), "--seed", "4"]
    )
    assert code == 0
    matrices = sorted(out.glob("distance_matrix_*.csv"))
    assert len(matrices) == 3
    assert len(sorted(out.glob("heatmap_*.pgm"))) == 3
    stats = (out / "stats.csv").read_text().splitlines()
    assert len(stats) == 1 + 3 * 2  # three strategies x two categories


def test_eval_deterministic_rerun(tmp_path, manifest):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["eval", str(manifest), "--out", str(out), "--seed", "9"]) == 0
    assert read_all_csvs(out_a) == read_all_csvs(out_b)


def test_eval_hsd_bytes_independent_of_threads(tmp_path, manifest):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("sample_budget = 5000\n")
    outputs = []
    for threads in ("1", "2", "4"):
        out = tmp_path / f"threads{threads}"
        argv = ["eval", str(manifest), "--mode", "hsd", "--strategy", "all"]
        argv += ["--config", str(cfg_file), "--threads", threads, "--out", str(out)]
        assert main(argv) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert len(outputs[0]) == 7
    assert outputs[0] == outputs[1] == outputs[2]


# ---------------------------------------------------------------------------
# spin
# ---------------------------------------------------------------------------


def test_spin_train_and_cluster(tmp_path, object_file):
    out = tmp_path / "spin"
    code = main(
        ["spin", str(object_file), "--train", "--out", str(out), "--dump-images", "2"]
    )
    assert code == 0
    assert (out / "codebook.csv").is_file()
    assert (out / "codes.csv").is_file()
    labels = (out / "labels.csv").read_text().splitlines()
    assert labels[0] == "point_index,label"
    assert len(labels) == 1 + 120
    assert (out / "spin_0000.pgm").is_file()
    assert (out / "spin_0001.pgm").is_file()


def test_spin_cluster_rerun_identical(tmp_path, object_file):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["spin", str(object_file), "--train", "--out", str(out)]) == 0
    assert (out_a / "labels.csv").read_bytes() == (out_b / "labels.csv").read_bytes()


def test_spin_mismatched_codebook_dims(tmp_path, object_file, capsys):
    out = tmp_path / "spin"
    # train a patch codebook, then present it as whole-image: dims mismatch
    cfg = tmp_path / "run.cfg"
    cfg.write_text("spin_codebook_kind = patch-11x11\n")
    assert main(["spin", str(object_file), "--train", "--config", str(cfg), "--out", str(out)]) == 0
    cb_path = out / "codebook.csv"
    text = cb_path.read_text().splitlines()
    text[0] = text[0].replace("patch-11x11", "whole-image")
    bad_cb = tmp_path / "bad_cb.csv"
    bad_cb.write_text("\n".join(text) + "\n")
    code = main(["spin", str(object_file), "--codebook", str(bad_cb), "--out", str(out)])
    assert code == 2
    assert "dims" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line",
    [
        ("whole-image,496\n0\n", 1),  # header without a count
        ("whole-image,3,1\n0,0,0\n1,x,0\n", 3),  # non-numeric basis value
    ],
)
def test_spin_bad_codebook_exits_2_naming_file_and_line(tmp_path, object_file, capsys, text, line):
    bad_cb = tmp_path / "bad.csv"
    bad_cb.write_text(text)
    code = main(["spin", str(object_file), "--codebook", str(bad_cb), "--out", str(tmp_path / "s")])
    assert code == 2
    assert f"bad.csv:{line}: " in capsys.readouterr().err


def test_spin_requires_train_or_codebook(tmp_path, object_file):
    assert main(["spin", str(object_file), "--out", str(tmp_path / "s")]) == 2


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def test_synth_dataset_manifest_loads(tmp_path):
    out = tmp_path / "data"
    code = main(
        ["synth", "dataset", "--classes", "sphere,box", "--per-class", "2",
         "--points", "60", "--out", str(out)]
    )
    assert code == 0
    from lidarshape.evaluate import load_manifest

    ds = load_manifest(out / "manifest.csv")
    assert len(ds) == 4
    assert set(ds.categories) == {"sphere", "box"}


def test_synth_scene(tmp_path):
    out = tmp_path / "scene"
    assert main(["synth", "scene", "--tiles", "6", "--objects", "3", "--out", str(out)]) == 0
    assert (out / "scene.xyz").is_file()
    tiles = (out / "planted_tiles.csv").read_text().splitlines()
    assert len(tiles) == 1 + 3


def test_unknown_subcommand_usage_error():
    assert main(["frobnicate"]) == 2


def test_cli_import_does_not_load_scipy():
    # the child imports the same package this test process imported
    src = str(Path(lidarshape.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, lidarshape.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert done.stdout.strip() == "[]"
