import ast
import contextlib
import dataclasses
import io
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lidarshape
import lidarshape.cli
from lidarshape.cli import RunConfig, main
from lidarshape.core import ParseError, PointCloud, save_cloud
from lidarshape.shapedist import MAX_SAMPLE_BUDGET, SDConfig
from lidarshape.synth import OBJECT_KINDS, make_object, make_scene


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


def test_every_config_key_is_read():
    # a key that no code reads is a setting that changes nothing
    tree = ast.parse(Path(lidarshape.cli.__file__).read_text())
    read = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("cfg", "self")
    }
    unread = [f.name for f in dataclasses.fields(RunConfig) if f.name not in read]
    assert unread == []


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
    "text, line_no",
    [
        ("# note\nno equals sign\n", 2),
        ("bins = 32\nno_such_knob = 3\n", 2),
        ("\nbins = many\n", 2),
        ("seed = 1\nbins = 1\n", 2),
        ("roi_max_height = 0.1\nseed = 1\n", 1),  # checked once the file is read
    ],
)
def test_config_errors_are_parse_errors_at_their_line(tmp_path, text, line_no):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(text)
    with pytest.raises(ParseError) as info:
        RunConfig.load(cfg_file)
    assert (info.value.path, info.value.line_no) == (str(cfg_file), line_no)
    assert str(info.value).startswith(f"{cfg_file}:{line_no}: ")


@pytest.mark.parametrize(
    "line, message",
    [
        ("sample_budget = 1000000000", "sample_budget must be in 1..10000000, got 1000000000"),
        ("bins = 1", "bins must be >= 2, got 1"),
        ("bins = 1025", "bins must be at most 1024, got 1025"),
        ("octree_leaf_capacity = 0", "octree parameters must be positive"),
        ("icp_max_iters = 0", "max_iters must be >= 1, got 0"),
        ("icp_trim_fraction = 1.5", "trim_fraction must be in [0, 1), got 1.5"),
        ("parts_k = 0", "parts_k must be positive, got 0"),
        ("threads = 0", "threads must be positive, got 0"),
        ("hsd_level = 0", "hsd_level must be positive, got 0"),
        ("hsd_level = 33", "octree max_depth must be at most 32, got 33"),
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
        ("roi_min_points = -5", "roi_min_points must be >= 0, got -5"),
        ("seed = -5", "seed must be >= 0, got -5"),
        ("roi_min_height = -1", "roi_min_height must be finite and >= 0, got -1.0"),
        ("roi_min_height = nan", "roi_min_height must be finite and >= 0, got nan"),
        ("roi_min_height = inf", "roi_min_height must be finite and >= 0, got inf"),
        ("roi_max_height = nan", "roi_max_height must be a number, got nan"),
        ("roi_max_height = -1", "roi_min_height 0.3 exceeds roi_max_height -1.0"),
        ("roi_min_height = 20", "roi_min_height 20.0 exceeds roi_max_height 10.0"),
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


@pytest.mark.parametrize(
    "text, line_no",
    [
        ("roi_max_height = 5\nseed = 1\nroi_min_height = 6\n", 3),
        ("roi_min_height = 6\nroi_max_height = 5\nseed = 1\n", 2),
        ("roi_max_height = 0.2\nroi_min_height = 0.1\nroi_max_height = 0.05\n", 3),
    ],
)
def test_config_roi_heights_checked_after_the_last_line(tmp_path, text, line_no):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(text)
    with pytest.raises(ValueError, match=f"run.cfg:{line_no}: roi_min_height .* exceeds"):
        RunConfig.load(cfg_file)


def test_config_may_lower_both_roi_heights_max_first(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("roi_max_height = 0.2\nroi_min_height = 0.1\nroi_max_height = inf\n")
    cfg = RunConfig.load(cfg_file)
    assert (cfg.roi_min_height, cfg.roi_max_height) == (0.1, math.inf)


def test_threads_flag_must_be_positive(tmp_path, manifest, capsys):
    argv = ["eval", str(manifest), "--threads", "0", "--out", str(tmp_path / "e")]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: threads must be positive, got 0\n"
    assert not (tmp_path / "e").exists()


@pytest.mark.parametrize("command", ["features", "eval", "align", "spin", "roi", "synth"])
def test_seed_flag_passes_the_config_check(tmp_path, object_file, manifest, capsys, command):
    argv = {
        "features": ["features", str(object_file)],
        "eval": ["eval", str(manifest)],
        "align": ["align", str(manifest)],
        "spin": ["spin", str(object_file), "--train"],
        "roi": ["roi", str(object_file)],
        "synth": ["synth", "dataset"],
    }[command]
    assert main([*argv, "--seed", "-3", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"
    assert not (tmp_path / "o").exists()


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


def test_features_manifest_reads_threads_and_keeps_its_bytes(tmp_path, manifest, monkeypatch):
    from lidarshape import evaluate

    seen = []
    original = evaluate.dataset_features

    def spy(*args):
        seen.append(args[-1])
        return original(*args)

    monkeypatch.setattr(evaluate, "dataset_features", spy)
    outputs = []
    for threads in (1, 2):
        cfg_file = tmp_path / f"threads{threads}.cfg"
        cfg_file.write_text(f"threads = {threads}\nsample_budget = 5000\n")
        out = tmp_path / f"t{threads}"
        argv = ["features", str(manifest), "--mode", "hsd", "--config", str(cfg_file)]
        assert main([*argv, "--out", str(out)]) == 0
        outputs.append(read_all_csvs(out))
    assert seen == [1, 2]
    assert len(outputs[0]) == 4 and outputs[0] == outputs[1]


@pytest.mark.parametrize("scale", [1e41, 1e-41, 1e300, 1e-300])
def test_features_diameter_outside_the_window_exits_2_naming_the_input(tmp_path, capsys, scale):
    rng = np.random.default_rng(31)
    path = tmp_path / "far.xyz"
    save_cloud(PointCloud(rng.normal(size=(20, 3)) * scale), path)
    manifest = tmp_path / "m.csv"
    manifest.write_text("far.xyz,far\n")
    for target in (path, manifest):
        assert main(["features", str(target), "--out", str(tmp_path / "f")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {target}: cloud diameter "), err
        assert "is outside [1e-40, 1e+40]" in err


def degenerate_cloud(shape):
    rng = np.random.default_rng(19)
    if shape == "duplicates":
        return np.tile([[1.0, 2.0, 3.0]], (10, 1))
    if shape == "one-point":
        return np.array([[1.0, 2.0, 3.0]])
    if shape == "two-points":
        return np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    if shape == "four-points":
        return np.vstack([np.zeros(3), np.eye(3)])
    if shape == "collinear":
        return np.linspace(0.0, 1.0, 30)[:, None] * np.array([[1.0, 2.0, 3.0]])
    pts = rng.random((40, 3))
    pts[:, 2] = 0.5  # coplanar
    return pts


@pytest.mark.parametrize("mode", ["exact", "hsd"])
@pytest.mark.parametrize("shape", ["duplicates", "two-points", "collinear", "coplanar"])
def test_features_degenerate_cloud_exits_0_or_names_the_file(tmp_path, capsys, shape, mode):
    path = tmp_path / f"{shape}.xyz"
    save_cloud(PointCloud(degenerate_cloud(shape)), path)
    code = main(["features", str(path), "--mode", mode, "--out", str(tmp_path / "f")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert (tmp_path / "f" / f"features_{shape}.csv").is_file()
    else:
        assert code == 2
        assert err.startswith(f"error: {path}: ")


@pytest.mark.parametrize(
    "argv", [["features"], ["eval"], ["eval", "--threads", "2"]], ids=["features", "eval", "eval-2"]
)
def test_manifest_object_too_small_names_manifest_index_and_category(tmp_path, capsys, argv):
    rng = np.random.default_rng(23)
    save_cloud(make_object("box", 60, rng), tmp_path / "box.xyz")
    save_cloud(PointCloud(degenerate_cloud("duplicates")), tmp_path / "dup.xyz")
    manifest = tmp_path / "m.csv"
    manifest.write_text("file_path,category\nbox.xyz,box\ndup.xyz,dup\nbox.xyz,box\n")
    code = main([argv[0], str(manifest), "--mode", "hsd", *argv[1:], "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: object 1 (dup): D2 needs at least 2 representatives")


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


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_align_diameter_outside_the_window_exits_2_naming_the_manifest(tmp_path, capsys, scale):
    # 1e200 overflows the radial norms, 1e-200 underflows them to 0
    rng = np.random.default_rng(37)
    manifest = tmp_path / "m.csv"
    lines = []
    for i in range(3):
        save_cloud(PointCloud(make_object("lshape", 60, rng).points * scale), tmp_path / f"l{i}.xyz")
        lines.append(f"l{i}.xyz,lshape")
    manifest.write_text("\n".join(lines) + "\n")
    assert main(["align", str(manifest), "--out", str(tmp_path / "align")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: cloud diameter "), err
    assert "is outside [1e-40, 1e+40]" in err


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
    err = capsys.readouterr().err
    assert err == f"error: {bad_cb}:1: codebook dims 121 do not match whole-image descriptors 496\n"


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


def test_spin_codebook_of_too_few_basis_rows_exits_2(tmp_path, object_file, capsys):
    # a consistent header and rows, but 3 basis rows where encoding writes 30 codes
    bad_cb = tmp_path / "short.csv"
    bad_cb.write_text("whole-image,496,3\n" + ("0," * 495 + "0\n") * 4)
    code = main(["spin", str(object_file), "--codebook", str(bad_cb), "--out", str(tmp_path / "s")])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {bad_cb}:1: codebook needs a (30, 496) basis and a (496,) mean\n"
    assert not (tmp_path / "s" / "codes.csv").exists()


def test_spin_requires_train_or_codebook(tmp_path, object_file, capsys, monkeypatch):
    # exactly one codebook source, checked before any spin image is computed
    def fail(*args, **kwargs):
        raise AssertionError("spin images computed for a run that cannot encode them")

    monkeypatch.setattr(lidarshape.spinimage, "spin_images", fail)
    for flags, message in (
        ([], "one of the arguments --train --codebook is required"),
        (["--train", "--codebook", "cb.csv"], "not allowed with argument"),
    ):
        assert main(["spin", str(object_file), *flags, "--out", str(tmp_path / "s")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("command", ["spin", "roi", "align"])
@pytest.mark.parametrize(
    "shape", ["duplicates", "one-point", "two-points", "four-points", "collinear", "coplanar"]
)
def test_small_or_flat_cloud_exits_0_or_names_its_input(tmp_path, capsys, command, shape):
    cloud = tmp_path / f"{shape}.xyz"
    save_cloud(PointCloud(degenerate_cloud(shape)), cloud)
    manifest = tmp_path / "m.csv"
    manifest.write_text(f"{cloud.name},{shape}\n{cloud.name},{shape}\n")
    path, flags = {"spin": (cloud, ["--train"]), "roi": (cloud, []), "align": (manifest, [])}[command]
    code = main([command, str(path), *flags, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith(f"error: {path}: ")
    elif code == 1:
        assert "no planar spread" in err
    else:
        assert code == 0, err


def test_align_small_object_named_before_similarity(tmp_path, capsys, monkeypatch):
    from lidarshape import alignment

    rng = np.random.default_rng(29)
    save_cloud(make_object("box", 60, rng), tmp_path / "box.xyz")
    save_cloud(PointCloud(degenerate_cloud("two-points")), tmp_path / "pair.xyz")
    manifest = tmp_path / "m.csv"
    manifest.write_text("box.xyz,box\npair.xyz,pair\n")

    def fail(*args, **kwargs):
        raise AssertionError("similarity computed for a manifest that cannot be aligned")

    monkeypatch.setattr(alignment, "similarity_matrix", fail)
    assert main(["align", str(manifest), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {manifest}: object 1 (pair): ICP needs at least 3 points, got 2")


# ---------------------------------------------------------------------------
# hostile inputs: every command applies one diameter rule to each cloud
# ---------------------------------------------------------------------------


class Overran(BaseException):
    """A run outlived its time bound; `main` catches only Exception."""


def run_bounded(argv, seconds):
    """`main(argv)`, interrupted by `Overran` after `seconds` of wall time."""

    def overran(signum, frame):
        raise Overran(f"{argv[0]} ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def hostile_cloud(shape, n, exponent, offset):
    """n points of `shape` (a synth kind, "repeated", "collinear", "flat", or
    "heavy": n spread points under 100,000 copies of one point), scaled by
    10**exponent and shifted by `offset`, all drawn from seed 1."""
    rng = np.random.default_rng(1)
    if shape == "heavy":
        pts = np.vstack([np.tile([[0.25, -0.5, 0.125]], (100_000, 1)), rng.uniform(-1, 1, (n, 3))])
    elif shape == "repeated":  # at the offset whatever the scale: see the offsets below
        pts = np.zeros((n, 3))
    elif shape == "collinear":
        pts = rng.random((n, 1)) * [[1.0, 2.0, 3.0]]
    elif shape == "flat":
        pts = np.column_stack([rng.random((n, 2)), np.full(n, 0.5)])
    else:
        pts = make_object(shape, n, rng).points
    return PointCloud(pts * 10.0**exponent + offset)


# argv after the command; features and spin read the first cloud alone
HOSTILE_COMMANDS = {
    "features": ["features"],
    "features-hsd": ["features", "--mode", "hsd"],
    "eval": ["eval"],
    "align": ["align"],
    "spin": ["spin", "--train"],
}


@pytest.mark.parametrize("exponent", [300, -300])
@pytest.mark.parametrize("command", sorted(HOSTILE_COMMANDS))
def test_every_command_refuses_a_diameter_outside_the_window_naming_its_input(
    tmp_path, capsys, command, exponent
):
    save_cloud(hostile_cloud("lshape", 400, exponent, 0.0), tmp_path / "l.xyz")
    manifest = tmp_path / "m.csv"
    manifest.write_text("l.xyz,lshape\nl.xyz,lshape\n")
    name, *flags = HOSTILE_COMMANDS[command]
    target = tmp_path / "l.xyz" if name in ("features", "spin") else manifest
    assert main([name, str(target), *flags, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {target}: cloud diameter "), err
    assert err.endswith(" is outside [1e-40, 1e+40]\n"), err


@pytest.mark.parametrize("offset", [1e154, 1e300])
@pytest.mark.parametrize("command", sorted(HOSTILE_COMMANDS))
def test_every_command_refuses_a_far_cloud_naming_its_input(tmp_path, capsys, command, offset):
    # saved 1e154 away the lshape is 60 copies of one point, and squared
    # distances between the two clouds overflow; at 1e300 so do its centroids
    save_cloud(hostile_cloud("lshape", 60, 0, 0.0), tmp_path / "l.xyz")
    save_cloud(hostile_cloud("lshape", 60, 0, offset), tmp_path / "far.xyz")
    manifest = tmp_path / "m.csv"
    manifest.write_text("l.xyz,lshape\nfar.xyz,lshape\n")
    name, *flags = HOSTILE_COMMANDS[command]
    target = tmp_path / "far.xyz" if name in ("features", "spin") else manifest
    assert main([name, str(target), *flags, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {target}: cloud coordinate {offset:g} is outside [-1e+40, 1e+40]\n"


def test_features_hsd_of_one_heavy_representative_exits_2_within_5_s(tmp_path, capsys):
    # the level-3 reps' heaviest holds 0.996 of the weight: a row of weighted
    # draws is all distinct with chance 4.7e-5 for A3 and R3 and 2.5e-7 for
    # T3, so redrawing would not end (D2 enumerates its 37,950 rep pairs)
    path = tmp_path / "heavy.xyz"
    save_cloud(hostile_cloud("heavy", 400, 0, 0.0), path)
    argv = ["features", str(path), "--mode", "hsd", "--out", str(tmp_path / "o")]
    assert run_bounded(argv, 5) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: object 0 (heavy): A3 draws 3 distinct "), err
    assert "with chance 4.7e-05, below 0.01: one holds 0.996 of the weight" in err


_cloud_specs = st.tuples(
    st.sampled_from(OBJECT_KINDS + ("repeated", "collinear", "flat")),
    st.integers(1, 48),
    # inside the diameter window, and anywhere a float scale reaches
    st.one_of(st.integers(-45, 45), st.integers(-320, 306)),
    # a cloud lies within its extent of one of these points; past 1e40 the
    # position rule refuses it before squared distances between clouds overflow
    st.sampled_from([0.0, -7.5, 1e6, 1e154, 1e300]),
)


@settings(max_examples=40, deadline=None)
@given(
    command=st.sampled_from(sorted(HOSTILE_COMMANDS)),
    specs=st.lists(_cloud_specs, min_size=1, max_size=3),
)
@example(command="features-hsd", specs=[("heavy", 400, 0, 0.0)])
@example(command="features", specs=[("lshape", 400, -300, 0.0)])
@example(command="features-hsd", specs=[("lshape", 400, 300, 0.0), ("box", 30, 0, 0.0)])
@example(command="eval", specs=[("lshape", 400, -300, 0.0), ("lshape", 400, -300, 0.0)])
@example(command="align", specs=[("lshape", 400, 300, 0.0), ("lshape", 400, 0, 0.0)])
@example(command="spin", specs=[("lshape", 400, 300, 0.0)])
@example(command="spin", specs=[("lshape", 400, -300, 0.0)])
@example(command="align", specs=[("lshape", 60, 0, 0.0), ("lshape", 60, 0, 1e154)])
@example(command="features-hsd", specs=[("lshape", 60, 0, 1e300)])
def test_hostile_inputs_exit_0_or_2_without_a_runtime_warning_in_bounded_time(command, specs):
    name, *flags = HOSTILE_COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        lines = []
        for i, spec in enumerate(specs):
            save_cloud(hostile_cloud(*spec), tmp / f"c{i}.xyz")
            lines.append(f"c{i}.xyz,{spec[0]}")
        (tmp / "m.csv").write_text("\n".join(lines) + "\n")
        target = tmp / ("c0.xyz" if name in ("features", "spin") else "m.csv")
        stderr = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()):
                code = run_bounded([name, str(target), *flags, "--out", str(tmp / "o")], 10)
    err = stderr.getvalue()
    assert code in (0, 2) or (code == 1 and "degenerate correspondences" in err), err
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


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


def child_env():
    """The environment of a child that imports the package this process imported."""
    src = str(Path(lidarshape.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_cli_import_does_not_load_scipy():
    code = (
        "import sys, lidarshape.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=child_env()
    )
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv, loads_scipy",
    [
        (["features", "{object}", "--mode", "hsd"], False),
        (["eval", "{manifest}", "--mode", "hsd"], False),
        (["roi", "{scene}"], False),
        (["spin", "{object}", "--train"], False),
        (["align", "{manifest}"], True),  # ICP matches points with cKDTree
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_only_align_loads_scipy(tmp_path, object_file, manifest, argv, loads_scipy):
    save_cloud(make_scene(seed=11, extent_tiles=6, n_objects=2).scene, tmp_path / "scene.xyz")
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("sample_budget = 5000\n")
    files = {"object": object_file, "manifest": manifest, "scene": tmp_path / "scene.xyz"}
    argv = [a.format(**files) for a in argv]
    argv += ["--config", str(cfg_file), "--out", str(tmp_path / "out")]
    code = (
        "import sys; from lidarshape.cli import main; "
        f"assert main({argv!r}) == 0; "
        "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=child_env()
    )
    assert done.stdout.splitlines()[-1] == str(loads_scipy)
