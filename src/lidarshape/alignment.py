"""Object similarity and 4-DOF alignment.

Similarity: each object gets five 1-D histogram features, all invariant to
planar/vertical translation and rotation about z, so similarity can be
judged before anything is aligned:

1. height above the object's lowest point
2. planar radial distance from the vertical centroid axis
3. sampled pairwise point distances (D2)
4. occupancy profile over relative height slabs (thickness proxy)
5. distance to the best-fit vertical plane through the centroid

Object distance is the mean of the five per-feature Earth Mover's Distances.

Alignment: trimmed point-to-point ICP restricted to the 4 permitted degrees
of freedom, plus a divide-and-conquer group procedure that repeatedly merges
the two closest object sets (single linkage over the precomputed similarity
matrix), aligning the most similar cross-set object pair at each merge.
Single linkage merges along the minimum spanning tree (Gower & Ross, 1969),
so the merges come from Kruskal's algorithm: one sort of the pair distances,
then a union of sets per edge that joins two of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import Histogram1D, PointCloud, Transform4DOF, apply_transform, emd_1d
from .shapedist import SDConfig, exact_sd

FEATURE_NAMES = ("height", "radial", "d2", "slab", "plane")


def feature_ranges_for_group(
    objects: Sequence[PointCloud],
) -> Dict[str, Tuple[float, float]]:
    """Group-wide `{name: (lo, hi)}` ranges so all five histograms share
    support; slab positions are relative heights in [0, 1], and plane
    distances share the radial range.

    Every bound is derived from rotation-invariant quantities (z extent and
    planar radius about the centroid, never the axis-aligned bbox), so the
    ranges cannot drift when objects are moved by 4-DOF transforms.
    """
    h_max = r_max = d_max = 1e-12
    for obj in objects:
        pts = obj.points
        h = float(pts[:, 2].max() - pts[:, 2].min())
        h_max = max(h_max, h)
        centroid = pts[:, :2].mean(axis=0)
        radial = np.linalg.norm(pts[:, :2] - centroid, axis=1)
        r = float(radial.max())
        r_max = max(r_max, r)
        d_max = max(d_max, math.hypot(2.0 * r, h))  # bounds any pairwise distance
    return {
        "height": (0.0, h_max),
        "radial": (0.0, r_max),
        "d2": (0.0, d_max),
        "slab": (0.0, 1.0),
        "plane": (0.0, r_max),
    }


def _vertical_plane_distances(pts: np.ndarray) -> np.ndarray:
    """Distance of each point to the best-fit plane that contains the
    vertical axis through the xy centroid (2-D PCA minor direction)."""
    xy = pts[:, :2]
    centered = xy - xy.mean(axis=0)
    cov = centered.T @ centered
    _, vecs = np.linalg.eigh(cov)
    minor = vecs[:, 0]  # smallest variance direction
    return np.abs(centered @ minor)


def shape_features(
    cloud: PointCloud,
    ranges: Dict[str, Tuple[float, float]],
    cfg: SDConfig = SDConfig(),
) -> Dict[str, Histogram1D]:
    """The five similarity histograms, `{name: histogram}` in FEATURE_NAMES
    order, with cfg.bins bins over the fixed ranges."""
    pts = cloud.points
    z_rel = pts[:, 2] - pts[:, 2].min()
    radial = np.linalg.norm(pts[:, :2] - pts[:, :2].mean(axis=0), axis=1)
    span = z_rel.max()
    rel_pos = z_rel / span if span > 0 else np.zeros_like(z_rel)

    lo, hi = ranges["d2"]
    if len(cloud) >= 2:
        d2 = exact_sd(cloud, "D2", cfg.fixed(lo, hi)).histogram
    else:  # one point has no pairs: all mass goes to the first bin
        d2 = Histogram1D.from_values([lo], lo, hi, cfg.bins)

    def binned(name, values):
        return Histogram1D.from_values(values, *ranges[name], cfg.bins)

    return {
        "height": binned("height", z_rel),
        "radial": binned("radial", radial),
        "d2": d2,
        "slab": binned("slab", rel_pos),
        "plane": binned("plane", _vertical_plane_distances(pts)),
    }


def similarity_matrix(
    objects: Sequence[PointCloud], cfg: SDConfig = SDConfig()
) -> np.ndarray:
    """Symmetric pairwise object distances; feature ranges are fixed from the
    group before any distance is computed. All objects share one D2 sample
    seed, so duplicated objects get exactly identical features."""
    if len(objects) < 2:
        raise ValueError(f"need at least 2 objects, got {len(objects)}")
    ranges = feature_ranges_for_group(objects)
    feats = [shape_features(obj, ranges, cfg) for obj in objects]
    n = len(objects)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            emds = [emd_1d(feats[i][name], feats[j][name]) for name in FEATURE_NAMES]
            out[i, j] = out[j, i] = float(np.mean(emds))
    return out


# ---------------------------------------------------------------------------
# 4-DOF ICP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ICPConfig:
    max_iters: int = 50
    rms_tol: Optional[float] = None  # None: 1e-5 * target bbox diagonal
    trim_fraction: float = 0.1

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 <= self.trim_fraction < 1.0:
            raise ValueError(f"trim_fraction must be in [0, 1), got {self.trim_fraction}")


class DegenerateFitError(ValueError):
    """The correspondences leave the 4-DOF fit undetermined (no planar
    spread): a numerical failure of the alignment, not malformed input."""


def _fit_4dof(src: np.ndarray, dst: np.ndarray) -> Transform4DOF:
    """Closed-form least-squares 4-DOF motion taking src onto dst:
    2-D Procrustes for the rotation, centroid difference for translation."""
    sc = src[:, :2].mean(axis=0)
    dc = dst[:, :2].mean(axis=0)
    s = src[:, :2] - sc
    d = dst[:, :2] - dc
    num = float(np.sum(s[:, 0] * d[:, 1] - s[:, 1] * d[:, 0]))
    den = float(np.sum(s[:, 0] * d[:, 0] + s[:, 1] * d[:, 1]))
    if num == 0.0 and den == 0.0:
        raise DegenerateFitError("degenerate correspondences: no planar spread")
    theta = math.atan2(num, den)
    c, sn = math.cos(theta), math.sin(theta)
    tx = dc[0] - (c * sc[0] - sn * sc[1])
    ty = dc[1] - (sn * sc[0] + c * sc[1])
    tz = float(dst[:, 2].mean() - src[:, 2].mean())
    return Transform4DOF(tx=tx, ty=ty, tz=tz, theta=theta)


def icp_4dof(
    source: PointCloud,
    target: PointCloud,
    cfg: ICPConfig = ICPConfig(),
) -> Tuple[Transform4DOF, float]:
    """Trimmed point-to-point ICP restricted to 4 degrees of freedom.

    Each iteration matches every source point to its nearest target point,
    drops the worst trim_fraction matches, refits the closed-form update, and
    stops once the trimmed RMS improves by less than rms_tol. Returns the
    cumulative transform and the final trimmed RMS.
    """
    transform, history = icp_4dof_history(source, target, cfg)
    return transform, history[-1]


def icp_4dof_history(
    source: PointCloud,
    target: PointCloud,
    cfg: ICPConfig = ICPConfig(),
) -> Tuple[Transform4DOF, List[float]]:
    """Same iteration as icp_4dof, also returning the trimmed RMS measured at
    the start of every iteration (a non-increasing sequence)."""
    if len(source) < 3 or len(target) < 3:
        raise ValueError("ICP needs at least 3 points in source and target")
    from scipy.spatial import cKDTree  # deferred: most commands never match points

    tol = cfg.rms_tol if cfg.rms_tol is not None else 1e-5 * target.bbox_diagonal()
    tree = cKDTree(target.points)
    total = Transform4DOF.identity()
    n_keep = max(3, int(math.ceil(len(source) * (1.0 - cfg.trim_fraction))))

    moved = source.points
    prev_rms = math.inf
    history: List[float] = []
    for _ in range(cfg.max_iters):
        dist, idx = tree.query(moved)
        keep = np.argsort(dist, kind="stable")[:n_keep]
        rms = float(np.sqrt(np.mean(np.square(dist[keep]))))
        history.append(rms)
        if rms < tol or prev_rms - rms < tol:
            break
        prev_rms = rms
        update = _fit_4dof(moved[keep], target.points[idx[keep]])
        total = update.compose(total)
        moved = update.apply_points(moved)
    return total, history


# ---------------------------------------------------------------------------
# Divide-and-conquer group alignment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MergeRecord:
    kept_set: Tuple[int, ...]
    merged_set: Tuple[int, ...]
    source_object: int
    target_object: int
    transform: Transform4DOF
    distance: float


@dataclass(frozen=True)
class GroupAlignment:
    transforms: Tuple[Transform4DOF, ...]
    merges: Tuple[MergeRecord, ...]


def _single_linkage(sim: np.ndarray):
    """Kruskal over the upper-triangle edges in (distance, i, j) order. Yields
    (kept members, moved members, target object, source object, distance) per
    merge. Each set sits under the slot of the object it started from; the
    larger set is kept, and on equal sizes the one with the lower slot. Only
    moved (never larger) sets are relabelled, O(n log n) relabels in all."""
    rows, cols = np.triu_indices(sim.shape[0], 1)
    order = np.lexsort((cols, rows, sim[rows, cols]))
    slot = list(range(sim.shape[0]))  # object -> slot of its set
    members = {i: [i] for i in slot}  # slot -> objects, in merge order
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        a, b = slot[i], slot[j]
        if a == b:
            continue
        if a > b:
            a, b, i, j = b, a, j, i
        if len(members[a]) >= len(members[b]):
            kept, moved, target, source = a, b, i, j
        else:
            kept, moved, target, source = b, a, j, i
        yield members[kept], members[moved], target, source, float(sim[i, j])
        for k in members[moved]:
            slot[k] = kept
        members[kept] = members[kept] + members.pop(moved)


def align_group(
    objects: Sequence[PointCloud],
    cfg: ICPConfig = ICPConfig(),
    sd_cfg: SDConfig = SDConfig(),
    similarity: Optional[np.ndarray] = None,
) -> GroupAlignment:
    """Merge singleton sets until one remains: each step picks the set pair
    with the smallest single-linkage distance (ties to the lowest object
    index pair), ICP-aligns the most similar cross-set object pair, and
    composes that transform onto the smaller set."""
    n = len(objects)
    if n < 2:
        raise ValueError(f"need at least 2 objects, got {n}")
    sim = similarity_matrix(objects, sd_cfg) if similarity is None else similarity

    transforms = [Transform4DOF.identity() for _ in range(n)]
    merges: List[MergeRecord] = []
    for kept, moved, target_obj, source_obj, dist in _single_linkage(sim):
        src_cloud = apply_transform(objects[source_obj], transforms[source_obj])
        dst_cloud = apply_transform(objects[target_obj], transforms[target_obj])
        update, _ = icp_4dof(src_cloud, dst_cloud, cfg)
        for k in moved:
            transforms[k] = update.compose(transforms[k])
        merges.append(
            MergeRecord(
                kept_set=tuple(kept),
                merged_set=tuple(moved),
                source_object=source_obj,
                target_object=target_obj,
                transform=update,
                distance=dist,
            )
        )

    return GroupAlignment(transforms=tuple(transforms), merges=tuple(merges))


def write_similarity_csv(matrix: np.ndarray, path) -> None:
    with open(path, "w") as fh:
        n = matrix.shape[0]
        fh.write("," + ",".join(f"obj{j}" for j in range(n)) + "\n")
        for i in range(n):
            fh.write(f"obj{i}," + ",".join(f"{v:.9g}" for v in matrix[i]) + "\n")


def write_transforms_csv(alignment: GroupAlignment, path) -> None:
    with open(path, "w") as fh:
        fh.write("object_id,tx,ty,tz,theta\n")
        for i, t in enumerate(alignment.transforms):
            fh.write(f"{i},{t.tx:.9g},{t.ty:.9g},{t.tz:.9g},{t.theta:.9g}\n")


def write_merges_csv(alignment: GroupAlignment, path) -> None:
    with open(path, "w") as fh:
        fh.write("step,source_object,target_object,distance,tx,ty,tz,theta\n")
        for step, m in enumerate(alignment.merges):
            t = m.transform
            fh.write(
                f"{step},{m.source_object},{m.target_object},{m.distance:.9g},"
                f"{t.tx:.9g},{t.ty:.9g},{t.tz:.9g},{t.theta:.9g}\n"
            )
