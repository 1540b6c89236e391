import numpy as np
import pytest

from lidarshape.core import PointCloud
from lidarshape.octree import (
    OctreeConfig,
    build_octree,
    compute_reps,
    iter_nodes,
    nodes_at_level,
    subvoxel_grid_per_axis,
)


def test_single_point_cloud_is_leaf():
    root = build_octree(PointCloud(np.array([[1.0, 2.0, 3.0]])))
    assert root.is_leaf
    assert root.count == 1
    assert len(root.reps) == 1
    assert root.reps[0].weight == 1
    assert root.reps[0].scatter == 0.0


def test_eight_octant_points_split_once():
    centers = np.array(
        [[x, y, z] for x in (0.25, 0.75) for y in (0.25, 0.75) for z in (0.25, 0.75)]
    )
    root = build_octree(PointCloud(centers), OctreeConfig(leaf_capacity=1))
    assert len(root.children) == 8
    for child in root.children:
        assert child.is_leaf
        assert child.count == 1


def test_invariant_audit_random_cloud():
    rng = np.random.default_rng(23)
    cloud = PointCloud(rng.uniform(-4, 4, size=(10_000, 3)))
    root = build_octree(cloud, OctreeConfig(max_depth=5, leaf_capacity=40))

    leaf_total = 0
    for node in iter_nodes(root):
        assert node.depth <= 5
        # weight conservation at every node
        assert sum(r.weight for r in node.reps) == node.count
        if node.is_leaf:
            leaf_total += node.count
            assert np.all(node.bounds.contains(cloud.points[node.point_indices], slack=1e-12))
        else:
            assert node.count == sum(c.count for c in node.children)
            for child in node.children:
                assert np.all(child.bounds.min >= node.bounds.min - 1e-12)
                assert np.all(child.bounds.max <= node.bounds.max + 1e-12)
    assert leaf_total == 10_000


def test_subvoxel_grid_never_exceeds_group_budget():
    for m in range(1, 65):
        g = subvoxel_grid_per_axis(m)
        assert g**3 <= m
        assert (g + 1) ** 3 > m


def test_reps_single_point():
    cloud = PointCloud(np.array([[0.5, 0.5, 0.5]]))
    root = build_octree(cloud)
    reps = compute_reps(cloud.points, root.bounds, 8)
    assert len(reps) == 1
    assert reps[0].weight == 1
    assert reps[0].scatter == 0.0


def test_reps_coincident_points_merge():
    pts = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    cloud = PointCloud(pts)
    root = build_octree(cloud)
    reps = compute_reps(pts, root.bounds, 8)
    assert len(reps) == 1
    assert reps[0].weight == 2
    assert reps[0].scatter == 0.0


def test_reps_match_brute_force_partition():
    rng = np.random.default_rng(31)
    pts = rng.uniform(0, 2, size=(500, 3))
    cloud = PointCloud(pts)
    root = build_octree(cloud, OctreeConfig(leaf_capacity=1000))
    reps = compute_reps(pts, root.bounds, 8)
    assert sum(r.weight for r in reps) == 500

    # recompute membership from the grid definition and check mean/scatter
    g = subvoxel_grid_per_axis(8)
    ext = root.bounds.extent()
    cell = np.clip(np.floor((pts - root.bounds.min) / ext * g).astype(int), 0, g - 1)
    flat = (cell[:, 0] * g + cell[:, 1]) * g + cell[:, 2]
    by_cell = {}
    for i, c in enumerate(flat):
        by_cell.setdefault(int(c), []).append(i)
    assert len(reps) == len(by_cell)
    actual = sorted(
        (tuple(np.round(r.position, 9)), r.weight, r.scatter) for r in reps
    )
    expected = []
    for idx in by_cell.values():
        members = pts[idx]
        mean = members.mean(axis=0)
        scatter = np.square(members - mean).sum(axis=1).mean()
        expected.append((tuple(np.round(mean, 9)), len(idx), scatter))
    expected.sort()
    for (am, aw, asc), (em, ew, esc) in zip(actual, expected):
        assert am == em
        assert aw == ew
        assert asc == pytest.approx(esc, abs=1e-9)


def test_nodes_at_level_cover_all_points():
    rng = np.random.default_rng(37)
    cloud = PointCloud(rng.normal(size=(3000, 3)))
    root = build_octree(cloud, OctreeConfig(max_depth=6, leaf_capacity=16))
    for level in (1, 2, 3, 4):
        nodes = nodes_at_level(root, level)
        assert sum(n.count for n in nodes) == 3000
        for n in nodes:
            assert n.depth == level or (n.is_leaf and n.depth < level)


def test_degenerate_planar_cloud_builds():
    rng = np.random.default_rng(41)
    pts = rng.uniform(0, 1, size=(100, 3))
    pts[:, 2] = 0.0  # perfectly flat
    root = build_octree(PointCloud(pts), OctreeConfig(leaf_capacity=10))
    assert root.count == 100
    ext = root.bounds.extent()
    assert ext[0] == ext[1] == ext[2] > 0
