"""The benchmark's workloads: seeded inputs, one CLI command each, output checks.

Every workload is one `lidarshape` command run on files made from the
workload seed. `generate` writes only the files the command reads (xyz
clouds and manifests) and returns what the checks need:
planted tiles and motions, item counts and the `hsd_l1` reference. None of it is timed, and
the same seed gives byte-identical files. `check` reads a finished run's
output directory and returns the problems found and the workload's quality
figure.

Sizes are chosen so that one CLI run spends about 2-5 s of work beside the
~0.7 s import on a 2-core machine: several runs then fit in one benchmark
run, and the median of those runs is steady on a shared host.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

# objects-hsd: HSD at the paper's default object size (300 points) and the
# default tuple budget, as users run it. Two classes of two objects keep one
# CLI run near 6 s; cylinder stays in because it is the class that separates
# worst.
HSD_CLASSES = ("cylinder", "sphere")
HSD_PER_CLASS = 2
HSD_POINTS = 300
# cloud-large: one dense cylinder; octree build and sampled HSD dominate
LARGE_POINTS = 30_000
# street-roi: planted scene of 1 m tiles
SCENE_TILES = 100
SCENE_OBJECTS = 200
REFINE_K = 100
# group-align: copies of a few base shapes under planted 4-DOF motions
ALIGN_BASES = ("lshape", "box", "cylinder", "pole")
ALIGN_COPIES = 12
ALIGN_POINTS = 400
ALIGN_NOISE = 0.005  # std of the copy noise, as a share of the base diameter
ALIGN_TOL = 0.05  # misaligned: mean NN distance above this share of the diameter
# spin-parts: spin images of one asymmetric object
SPIN_POINTS = 2500
PARTS_K = 5  # the CLI default `parts_k`

SUM_TOL = 1e-9
# each workload's quality figure, with its unit; deterministic for a seed
QUALITY_UNITS = {
    "separation_ratio": "ratio",  # worst within/across mean-distance ratio in stats.csv
    "hsd_l1": "L1",  # worst per-kind L1 between the HSD features and exact_sd
    "roi_recall": "ratio",  # planted tiles kept at basic or refined
    "align_misaligned": "count",  # copies left off their base's first copy
}


def write_xyz(points: np.ndarray, path: Path) -> None:
    """xyz-ascii with 9 significant digits, the program's own file format."""
    np.savetxt(path, points, fmt="%.9g", delimiter=" ")


def read_csv(path: Path) -> Tuple[List[str], List[List[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:] if line]


def output_digest(out_dir: Path) -> str:
    """sha256 over every output file's name and bytes, in name order."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _check_matrix(values: np.ndarray, what: str) -> List[str]:
    problems = []
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        return [f"{what}: not a square matrix, shape {values.shape}"]
    if not np.array_equal(values, values.T):
        problems.append(f"{what}: not symmetric")
    if np.any(np.diag(values) != 0.0):
        problems.append(f"{what}: nonzero diagonal")
    if not np.all(np.isfinite(values)):
        problems.append(f"{what}: non-finite entries")
    return problems


def _matrix_csv(path: Path) -> np.ndarray:
    _, rows = read_csv(path)
    return np.array([[float(v) for v in row[1:]] for row in rows])


def _write_manifest(entries: List[Tuple[str, str]], path: Path) -> None:
    lines = ["file_path,category"] + [f"{name},{cat}" for name, cat in entries]
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# objects-hsd
# ---------------------------------------------------------------------------


def gen_objects_hsd(seed: int, in_dir: Path) -> dict:
    from lidarshape.synth import make_dataset

    classes = {kind: HSD_PER_CLASS for kind in HSD_CLASSES}
    objects = make_dataset(classes, HSD_POINTS, seed=seed)
    entries = []
    for i, obj in enumerate(objects):
        name = f"{obj.label}_{i:03d}.xyz"
        write_xyz(obj.points, in_dir / name)
        entries.append((name, obj.label))
    _write_manifest(entries, in_dir / "manifest.csv")
    return {"items": len(objects)}


def argv_objects_hsd(in_dir: Path, out_dir: Path) -> List[str]:
    return ["eval", str(in_dir / "manifest.csv"), "--mode", "hsd", "--strategy", "all",
            "--out", str(out_dir)]


def check_objects_hsd(out_dir: Path, meta: dict) -> Tuple[List[str], float]:
    problems = []
    for strategy in ("average", "smallest", "biggest"):
        path = out_dir / f"distance_matrix_{strategy}_hsd.csv"
        m = _matrix_csv(path)
        problems += _check_matrix(m, path.name)
        if m.shape[0] != meta["items"]:
            problems.append(f"{path.name}: {m.shape[0]} rows, expected {meta['items']}")
    header, rows = read_csv(out_dir / "stats.csv")
    ratios = [float(r[header.index("ratio")]) for r in rows]
    if len(rows) != 3 * len(HSD_CLASSES) or not all(map(math.isfinite, ratios)):
        problems.append(f"stats.csv: expected {3 * len(HSD_CLASSES)} finite ratios")
    return problems, max(ratios) if ratios else math.nan


# ---------------------------------------------------------------------------
# cloud-large
# ---------------------------------------------------------------------------


def gen_cloud_large(seed: int, in_dir: Path) -> dict:
    from lidarshape.core import PointCloud
    from lidarshape.shapedist import KINDS, SDConfig, exact_sd, sd_ranges
    from lidarshape.synth import make_object

    obj = make_object("cylinder", LARGE_POINTS, np.random.default_rng(seed))
    path = in_dir / "cylinder.xyz"
    write_xyz(obj.points, path)
    # reference from the file as written, over the ranges `features` uses
    cloud = PointCloud(np.loadtxt(path))
    ranges = sd_ranges(cloud.bbox_diagonal())
    cfg = SDConfig()
    reference = {
        kind: exact_sd(cloud, kind, cfg.fixed(*ranges[kind])).histogram.mass.tolist()
        for kind in KINDS
    }
    return {"items": LARGE_POINTS, "reference": reference}


def argv_cloud_large(in_dir: Path, out_dir: Path) -> List[str]:
    return ["features", str(in_dir / "cylinder.xyz"), "--mode", "hsd", "--out", str(out_dir)]


def check_features_csv(path: Path) -> Tuple[List[str], Dict[str, np.ndarray]]:
    """Per-kind histograms of a feature CSV, and any that do not sum to 1."""
    header, rows = read_csv(path)
    hists: Dict[str, List[float]] = {}
    for row in rows:
        hists.setdefault(row[header.index("kind")], []).append(float(row[header.index("mass")]))
    out = {kind: np.array(mass) for kind, mass in hists.items()}
    problems = [
        f"{path.name}: {kind} sums to {mass.sum()!r}"
        for kind, mass in out.items()
        if not abs(mass.sum() - 1.0) <= SUM_TOL
    ]
    return problems, out


def check_cloud_large(out_dir: Path, meta: dict) -> Tuple[List[str], float]:
    problems, hists = check_features_csv(out_dir / "features_cylinder.csv")
    if sorted(hists) != sorted(meta["reference"]):
        return problems + [f"feature kinds {sorted(hists)}"], math.nan
    l1 = [float(np.abs(hists[k] - np.array(ref)).sum()) for k, ref in meta["reference"].items()]
    return problems, max(l1)


# ---------------------------------------------------------------------------
# street-roi
# ---------------------------------------------------------------------------


def gen_street_roi(seed: int, in_dir: Path) -> dict:
    from lidarshape.synth import make_scene

    planted = make_scene(seed=seed, extent_tiles=SCENE_TILES, n_objects=SCENE_OBJECTS)
    write_xyz(planted.scene.points, in_dir / "scene.xyz")
    return {"items": SCENE_TILES * SCENE_TILES, "planted": [list(t) for t in planted.object_tiles]}


def argv_street_roi(in_dir: Path, out_dir: Path) -> List[str]:
    return ["roi", str(in_dir / "scene.xyz"), "--refine-k", str(REFINE_K), "--out", str(out_dir)]


def check_street_roi(out_dir: Path, meta: dict) -> Tuple[List[str], float]:
    header, rows = read_csv(out_dir / "roi.csv")
    stage = {(int(r[0]), int(r[1])): r[header.index("kept_by_stage")] for r in rows}
    basic = sum(1 for s in stage.values() if s in ("basic", "refined"))
    refined = sum(1 for s in stage.values() if s == "refined")
    problems = []
    if refined != min(REFINE_K, basic):
        problems.append(f"roi.csv: {refined} refined tiles, expected min({REFINE_K}, {basic})")
    if len(stage) != meta["items"]:
        problems.append(f"roi.csv: {len(stage)} occupied tiles, expected {meta['items']}")
    pgm = (out_dir / "mask.pgm").read_text().split()
    if pgm[:4] != ["P2", str(SCENE_TILES), str(SCENE_TILES), "255"]:
        problems.append(f"mask.pgm: header {pgm[:4]}")
    kept = sum(1 for t in meta["planted"] if stage.get(tuple(t)) in ("basic", "refined"))
    return problems, kept / len(meta["planted"])


# ---------------------------------------------------------------------------
# group-align
# ---------------------------------------------------------------------------


def _rz(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def gen_group_align(seed: int, in_dir: Path) -> dict:
    from lidarshape.synth import make_object

    rng = np.random.default_rng(seed)
    entries, groups = [], []
    for kind in ALIGN_BASES:
        base = make_object(kind, ALIGN_POINTS, rng).points
        diameter = float(np.linalg.norm(base.max(axis=0) - base.min(axis=0)))
        members = []
        for _ in range(ALIGN_COPIES):
            theta = rng.uniform(-math.pi, math.pi)
            shift = np.array([rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-1, 1)])
            noise = rng.normal(scale=ALIGN_NOISE * diameter, size=base.shape)
            pts = base @ _rz(theta).T + shift + noise
            name = f"{kind}_{len(entries):03d}.xyz"
            write_xyz(pts, in_dir / name)
            members.append(len(entries))
            entries.append((name, kind))
        groups.append({"kind": kind, "diameter": diameter, "members": members})
    _write_manifest(entries, in_dir / "manifest.csv")
    return {"items": len(entries), "groups": groups,
            "files": [str(in_dir / name) for name, _ in entries]}


def argv_group_align(in_dir: Path, out_dir: Path) -> List[str]:
    return ["align", str(in_dir / "manifest.csv"), "--merged-out", "merged.xyz",
            "--out", str(out_dir)]


def check_group_align(out_dir: Path, meta: dict) -> Tuple[List[str], float]:
    from scipy.spatial import cKDTree

    n = meta["items"]
    problems = _check_matrix(_matrix_csv(out_dir / "similarity.csv"), "similarity.csv")
    _, merges = read_csv(out_dir / "merges.csv")
    if len(merges) != n - 1:
        problems.append(f"merges.csv: {len(merges)} merges, expected {n - 1}")
    _, rows = read_csv(out_dir / "transforms.csv")
    t = np.array([[float(v) for v in row[1:]] for row in rows])
    if t.shape != (n, 4) or not np.all(np.isfinite(t)):
        return problems + [f"transforms.csv: shape {t.shape} or non-finite values"], math.nan
    with open(out_dir / "merged.xyz", "rb") as fh:
        merged_lines = sum(1 for _ in fh)
    if merged_lines != n * ALIGN_POINTS:
        problems.append(f"merged.xyz: {merged_lines} points, expected {n * ALIGN_POINTS}")

    def moved(i):
        tx, ty, tz, theta = t[i]
        return np.loadtxt(meta["files"][i]) @ _rz(theta).T + np.array([tx, ty, tz])

    misaligned = 0
    for group in meta["groups"]:
        first, *rest = group["members"]
        tree = cKDTree(moved(first))
        for i in rest:
            dist, _ = tree.query(moved(i))
            misaligned += float(dist.mean()) > ALIGN_TOL * group["diameter"]
    return problems, float(misaligned)


# ---------------------------------------------------------------------------
# spin-parts
# ---------------------------------------------------------------------------


def gen_spin_parts(seed: int, in_dir: Path) -> dict:
    from lidarshape.synth import make_object

    obj = make_object("lshape", SPIN_POINTS, np.random.default_rng(seed))
    write_xyz(obj.points, in_dir / "lshape.xyz")
    return {"items": SPIN_POINTS}


def argv_spin_parts(in_dir: Path, out_dir: Path) -> List[str]:
    return ["spin", str(in_dir / "lshape.xyz"), "--train", "--out", str(out_dir)]


def check_spin_parts(out_dir: Path, meta: dict) -> Tuple[List[str], float]:
    problems = []
    _, codes = read_csv(out_dir / "codes.csv")
    if [int(r[0]) for r in codes] != list(range(meta["items"])):
        problems.append(f"codes.csv: {len(codes)} rows, expected one per point")
    _, labels = read_csv(out_dir / "labels.csv")
    values = [int(r[1]) for r in labels]
    if len(values) != meta["items"] or not all(0 <= v < PARTS_K for v in values):
        problems.append(f"labels.csv: {len(values)} labels, expected one in [0, {PARTS_K}) per point")
    if not (out_dir / "codebook.csv").is_file():
        problems.append("codebook.csv missing")
    return problems, math.nan


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json says why each was chosen."""

    name: str
    items: str  # what items_per_s counts
    quality: str  # name of the workload's quality figure, "" when none
    generate: Callable[[int, Path], dict]
    argv: Callable[[Path, Path], List[str]]
    check: Callable[[Path, dict], Tuple[List[str], float]]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("objects-hsd", "objects", "separation_ratio",
                 gen_objects_hsd, argv_objects_hsd, check_objects_hsd),
        Workload("cloud-large", "points", "hsd_l1",
                 gen_cloud_large, argv_cloud_large, check_cloud_large),
        Workload("street-roi", "tiles", "roi_recall",
                 gen_street_roi, argv_street_roi, check_street_roi),
        Workload("group-align", "objects", "align_misaligned",
                 gen_group_align, argv_group_align, check_group_align),
        Workload("spin-parts", "points", "",
                 gen_spin_parts, argv_spin_parts, check_spin_parts),
    )
}
