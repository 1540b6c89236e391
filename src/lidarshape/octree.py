"""Octree spatial hierarchy with per-node weighted representative points.

Each node stores a small set of representatives (cluster mean, member count,
isotropic scatter) computed by a deterministic sub-voxel grid over the node
bounds. The representatives act as a down-sampled stand-in for the node's
points when shape distribution features are evaluated hierarchically, so a
feature between two large nodes costs a handful of rep pairs instead of a
full cross product of points.

The tree is built breadth first, one array pass per depth: the bounds and
reps of every node at a depth come out as arrays (`lo` and `hi` rows, and
one `REP_DTYPE` record array of position, weight and scatter), and each
node holds its rows and its slice of them. It stops at `max_depth`, the
level whose reps `hsd` reads, so no level below that one is built.

The tree is immutable after build; concurrent read traversal is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .core import PointCloud


# deepest level a tree may have: each level is one build pass, and a cube
# 2**-32 of the root's side is far below any scanner's resolution
MAX_DEPTH = 32


@dataclass(frozen=True)
class OctreeConfig:
    """max_depth is the deepest level built, the one HSD reads."""

    max_depth: int = 3
    leaf_capacity: int = 32
    reps_per_node: int = 8

    def __post_init__(self):
        if self.max_depth < 1 or self.leaf_capacity < 1 or self.reps_per_node < 1:
            raise ValueError(f"octree parameters must be positive: {self}")
        if self.max_depth > MAX_DEPTH:
            raise ValueError(f"octree max_depth must be at most {MAX_DEPTH}, got {self.max_depth}")


REP_DTYPE = np.dtype(
    [("position", np.float64, (3,)), ("weight", np.int64), ("scatter", np.float64)]
)


@dataclass
class OctreeNode:
    lo: np.ndarray  # cube corners: read-only rows of its depth's bounds arrays
    hi: np.ndarray
    depth: int
    count: int
    reps: np.ndarray  # REP_DTYPE records, a slice of its depth's array
    children: List["OctreeNode"] = field(default_factory=list)
    point_indices: Optional[np.ndarray] = None  # leaf only

    @property
    def is_leaf(self) -> bool:
        return not self.children


def subvoxel_grid_per_axis(m: int) -> int:
    """Largest g with g^3 <= m, so a g x g x g grid yields at most m groups."""
    g = max(1, int(round(m ** (1.0 / 3.0))))
    while g ** 3 > m:
        g -= 1
    while (g + 1) ** 3 <= m:
        g += 1
    return g


def build_octree(cloud: PointCloud, cfg: OctreeConfig = OctreeConfig()) -> OctreeNode:
    """Build the hierarchy: cube root bounds, split octants while a node holds
    more than leaf_capacity points and is shallower than max_depth. Each
    depth takes one array pass over its point indices, kept grouped by node
    (children in octant order, each node's points in index order)."""
    pts = cloud.points
    g = subvoxel_grid_per_axis(cfg.reps_per_node)
    # the smallest cube centered on the bounding box, padded so flat clouds get volume
    p_lo, p_hi = pts.min(axis=0), pts.max(axis=0)
    side = float((p_hi - p_lo).max())
    side += 1e-9 * side if side > 0 else 1e-9
    center, half = 0.5 * (p_lo + p_hi), 0.5 * side
    lo, hi = (center - half)[None, :], (center + half)[None, :]
    lo.flags.writeable = hi.flags.writeable = False  # nodes share them through their rows
    root = OctreeNode(lo[0], hi[0], 0, len(cloud), reps=None)
    nodes = [root]
    order = np.arange(len(cloud), dtype=np.int64)
    counts = np.array([len(cloud)])
    for depth in range(cfg.max_depth + 1):
        member = np.repeat(np.arange(len(nodes)), counts)
        sub = pts[order]
        reps, rep_starts = _depth_reps(sub, member, lo, hi, g)
        split = (counts > cfg.leaf_capacity) & (depth < cfg.max_depth)
        groups = zip(np.split(reps, rep_starts), np.split(order, np.cumsum(counts)[:-1]), split)
        for node, (node_reps, indices, internal) in zip(nodes, groups):
            node.reps = node_reps
            if not internal:
                node.point_indices = indices
        if not split.any():
            break

        keep = split[member]
        order, sub, member = order[keep], sub[keep], member[keep]
        center = 0.5 * (lo + hi)
        key = member * 8 + (sub >= center[member]) @ np.array([4, 2, 1])
        by_child = np.argsort(key, kind="stable")
        order = order[by_child]
        child_keys, counts = np.unique(key[by_child], return_counts=True)
        parent, code = np.divmod(child_keys, 8)
        upper = (code[:, None] & np.array([4, 2, 1])) > 0
        lo = np.where(upper, center[parent], lo[parent])
        hi = np.where(upper, hi[parent], center[parent])
        lo.flags.writeable = hi.flags.writeable = False
        children = [
            OctreeNode(l, h, depth + 1, c, reps=None) for l, h, c in zip(lo, hi, counts.tolist())
        ]
        for p, child in zip(parent.tolist(), children):
            nodes[p].children.append(child)
        nodes = children
    return root


def _depth_reps(sub, member, lo, hi, g):
    """Reps of every node at one depth: `sub` holds the depth's points grouped
    by node (`member` is each point's node) and lo/hi the node bounds. Returns
    the records, node by node in ascending sub-voxel cell order, and the
    record index at which each node after the first starts."""
    ext = np.maximum(hi - lo, 1e-300)
    cell = np.clip(np.floor((sub - lo[member]) / ext[member] * g).astype(np.int64), 0, g - 1)
    flat = (cell[:, 0] * g + cell[:, 1]) * g + cell[:, 2]
    # stable, by node then cell; a node * g**3 + cell key can overflow int64
    by_cell = np.lexsort((flat, member))
    node, flat = member[by_cell], flat[by_cell]
    first = np.flatnonzero(np.r_[True, (node[1:] != node[:-1]) | (flat[1:] != flat[:-1])])
    size = np.diff(np.r_[first, flat.shape[0]])
    cell_pts = sub[by_cell]
    rep = np.repeat(np.arange(first.shape[0]), size)

    out = np.empty(first.shape[0], dtype=REP_DTYPE)
    # bincount adds each cell's points in order from 0.0, as .mean(axis=0) does
    for axis in range(3):
        out["position"][:, axis] = np.bincount(rep, weights=cell_pts[:, axis]) / size
    out["weight"] = size
    sq_dev = np.square(cell_pts - out["position"][rep]).sum(axis=1)
    out["scatter"] = np.bincount(rep, weights=sq_dev) / size
    # numpy sums 8 or more values pairwise, not in order: those cells take
    # their own mean over their contiguous slice
    for c in np.flatnonzero(size >= 8).tolist():
        out["scatter"][c] = sq_dev[first[c] : first[c] + size[c]].mean()
    out.setflags(write=False)  # nodes share it through their slices
    return out, np.searchsorted(node[first], np.arange(1, lo.shape[0]))


def nodes_at_level(root: OctreeNode, level: int) -> List[OctreeNode]:
    """Nodes at the given depth, with shallower leaves standing in for the
    descendants they never grew."""
    out = []
    stack = [root]
    while stack:
        node = stack.pop()
        if node.depth == level or (node.is_leaf and node.depth < level):
            out.append(node)
        elif node.depth < level:
            stack.extend(reversed(node.children))
    return out
