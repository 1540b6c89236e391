"""Octree spatial hierarchy with per-node weighted representative points.

Each node stores a small set of representatives (cluster mean, member count,
isotropic scatter) computed by a deterministic sub-voxel grid over the node
bounds. The representatives act as a down-sampled stand-in for the node's
points when shape distribution features are evaluated hierarchically, so a
feature between two large nodes costs a handful of rep pairs instead of a
full cross product of points.

The tree is immutable after build; concurrent read traversal is safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .core import AABB, PointCloud


@dataclass(frozen=True)
class OctreeConfig:
    max_depth: int = 6
    leaf_capacity: int = 32
    reps_per_node: int = 8

    def __post_init__(self):
        if self.max_depth < 1 or self.leaf_capacity < 1 or self.reps_per_node < 1:
            raise ValueError(f"octree parameters must be positive: {self}")


@dataclass(frozen=True)
class RepPoint:
    """Weighted representative: cluster mean, member count, mean sq. deviation."""

    position: np.ndarray
    weight: int
    scatter: float  # mean squared distance of members to their mean, m^2

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=np.float64).reshape(3)
        pos.setflags(write=False)
        object.__setattr__(self, "position", pos)
        if self.weight < 1:
            raise ValueError(f"rep weight must be >= 1, got {self.weight}")
        if self.scatter < 0:
            raise ValueError(f"rep scatter must be >= 0, got {self.scatter}")


@dataclass
class OctreeNode:
    bounds: AABB
    depth: int
    count: int
    reps: List[RepPoint]
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


def compute_reps(points: np.ndarray, bounds: AABB, m: int) -> List[RepPoint]:
    """Partition points into at most m groups on a regular sub-voxel grid.

    Every occupied grid cell becomes one RepPoint carrying the member mean,
    the member count, and the mean squared distance of members to the mean.
    Weights always sum to the number of input points.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if n < 1:
        raise ValueError("cannot compute representatives of an empty node")
    g = subvoxel_grid_per_axis(m)
    ext = np.maximum(bounds.extent(), 1e-300)
    cell = np.floor((points - bounds.min) / ext * g).astype(np.int64)
    np.clip(cell, 0, g - 1, out=cell)
    flat = (cell[:, 0] * g + cell[:, 1]) * g + cell[:, 2]

    reps = []
    for cell_id in np.unique(flat):
        members = points[flat == cell_id]
        mean = members.mean(axis=0)
        sq_dev = np.square(members - mean).sum(axis=1)
        reps.append(RepPoint(mean, members.shape[0], float(sq_dev.mean())))
    return reps


def build_octree(cloud: PointCloud, cfg: OctreeConfig = OctreeConfig()) -> OctreeNode:
    """Build the hierarchy: cube root bounds, split octants while a node holds
    more than leaf_capacity points and is shallower than max_depth."""
    pts = cloud.points
    root_bounds = cloud.aabb().expanded_to_cube()
    indices = np.arange(len(cloud), dtype=np.int64)
    return _build_node(pts, indices, root_bounds, 0, cfg)


def _build_node(
    pts: np.ndarray,
    indices: np.ndarray,
    bounds: AABB,
    depth: int,
    cfg: OctreeConfig,
) -> OctreeNode:
    count = indices.shape[0]
    reps = compute_reps(pts[indices], bounds, cfg.reps_per_node)
    node = OctreeNode(bounds=bounds, depth=depth, count=count, reps=reps)

    if count <= cfg.leaf_capacity or depth >= cfg.max_depth:
        node.point_indices = indices
        return node

    center = 0.5 * (bounds.min + bounds.max)
    sub = pts[indices]
    octant = (
        (sub[:, 0] >= center[0]).astype(np.int64) * 4
        + (sub[:, 1] >= center[1]).astype(np.int64) * 2
        + (sub[:, 2] >= center[2]).astype(np.int64)
    )
    for code in range(8):
        child_idx = indices[octant == code]
        if child_idx.shape[0] == 0:
            continue
        lo = bounds.min.copy()
        hi = bounds.max.copy()
        for axis, bit in enumerate((4, 2, 1)):
            if code & bit:
                lo[axis] = center[axis]
            else:
                hi[axis] = center[axis]
        node.children.append(_build_node(pts, child_idx, AABB(lo, hi), depth + 1, cfg))
    return node


def iter_nodes(root: OctreeNode):
    """Yield every node in depth-first order."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


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
