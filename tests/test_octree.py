import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lidarshape.core import PointCloud
from lidarshape.octree import (
    REP_DTYPE,
    OctreeConfig,
    build_octree,
    nodes_at_level,
    subvoxel_grid_per_axis,
)
from lidarshape.synth import make_object

from _oracles import build_octree_recursive, iter_nodes


def test_single_point_cloud_is_leaf():
    root = build_octree(PointCloud(np.array([[1.0, 2.0, 3.0]])))
    assert root.is_leaf
    assert root.count == 1
    assert len(root.reps) == 1
    assert root.reps["weight"][0] == 1
    assert root.reps["scatter"][0] == 0.0


def test_eight_octant_points_split_once():
    centers = np.array(
        [[x, y, z] for x in (0.25, 0.75) for y in (0.25, 0.75) for z in (0.25, 0.75)]
    )
    root = build_octree(PointCloud(centers), OctreeConfig(leaf_capacity=1))
    assert len(root.children) == 8
    for child in root.children:
        assert child.is_leaf
        assert child.count == 1


def _inside(pts, node, slack):
    return np.all((pts >= node.lo - slack) & (pts <= node.hi + slack))


def _leaf_indices(node):
    return np.concatenate([n.point_indices for n in iter_nodes(node) if n.is_leaf])


_audit_coords = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
)


@settings(max_examples=100, deadline=None)
@given(
    points=arrays(np.float64, st.tuples(st.integers(1, 300), st.just(3)), elements=_audit_coords),
    max_depth=st.integers(1, 8),
    leaf_capacity=st.integers(1, 40),
    reps_per_node=st.integers(1, 30),
)
@example(
    points=np.random.default_rng(23).uniform(-4, 4, size=(10_000, 3)),
    max_depth=5,
    leaf_capacity=40,
    reps_per_node=8,
)
def test_invariant_audit_random_cloud(points, max_depth, leaf_capacity, reps_per_node):
    cloud = PointCloud(points)
    n = len(cloud)
    root = build_octree(cloud, OctreeConfig(max_depth, leaf_capacity, reps_per_node))
    slack = 1e-12 * max(1.0, float(np.abs(points).max()))

    leaf_total = 0
    for node in iter_nodes(root):
        assert node.depth <= max_depth
        assert not (node.lo.flags.writeable or node.hi.flags.writeable)
        reps = node.reps
        assert reps.dtype == REP_DTYPE
        # weight conservation at every node
        assert np.all(reps["weight"] >= 1)
        assert reps["weight"].sum() == node.count
        assert np.all(np.isfinite(reps["scatter"]))
        assert np.all(reps["scatter"] >= 0.0)
        assert _inside(reps["position"], node, slack)
        if node.is_leaf:
            leaf_total += node.count
            assert _inside(cloud.points[node.point_indices], node, 1e-12)
        else:
            assert node.point_indices is None
            assert node.count == sum(c.count for c in node.children)
            for child in node.children:
                assert child.depth == node.depth + 1
                assert np.all(child.lo >= node.lo - 1e-12)
                assert np.all(child.hi <= node.hi + 1e-12)
    assert leaf_total == n
    for level in range(1, max_depth + 1):
        nodes = nodes_at_level(root, level)
        covered = np.concatenate([_leaf_indices(node) for node in nodes])
        assert np.array_equal(np.sort(covered), np.arange(n))


def test_subvoxel_grid_never_exceeds_group_budget():
    for m in range(1, 65):
        g = subvoxel_grid_per_axis(m)
        assert g**3 <= m
        assert (g + 1) ** 3 > m


def _root_reps(pts):
    return build_octree(PointCloud(pts), OctreeConfig(leaf_capacity=len(pts))).reps


def test_reps_single_point():
    reps = _root_reps(np.array([[0.5, 0.5, 0.5]]))
    assert len(reps) == 1
    assert reps["weight"][0] == 1
    assert reps["scatter"][0] == 0.0


def test_reps_coincident_points_merge():
    reps = _root_reps(np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]))
    assert len(reps) == 1
    assert reps["weight"][0] == 2
    assert reps["scatter"][0] == 0.0


def test_reps_match_brute_force_partition():
    rng = np.random.default_rng(31)
    pts = rng.uniform(0, 2, size=(500, 3))
    root = build_octree(PointCloud(pts), OctreeConfig(leaf_capacity=500))
    reps = root.reps
    assert reps["weight"].sum() == 500

    # recompute membership from the grid definition and check mean/scatter
    g = subvoxel_grid_per_axis(8)
    ext = root.hi - root.lo
    cell = np.clip(np.floor((pts - root.lo) / ext * g).astype(int), 0, g - 1)
    flat = (cell[:, 0] * g + cell[:, 1]) * g + cell[:, 2]
    by_cell = {}
    for i, c in enumerate(flat):
        by_cell.setdefault(int(c), []).append(i)
    assert len(reps) == len(by_cell)
    actual = sorted(
        (tuple(np.round(r["position"], 9)), r["weight"], r["scatter"]) for r in reps
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
    # a flat cloud still gets a cube root with volume that holds every point
    rng = np.random.default_rng(41)
    uniform = rng.uniform(0, 1, size=(100, 3))
    uniform[:, 2] = 0.0  # perfectly flat
    for pts in (uniform, np.array([[0.0, 0, 0], [1.0, 2.0, 0]])):
        root = build_octree(PointCloud(pts), OctreeConfig(leaf_capacity=10))
        assert root.count == len(pts)
        ext = root.hi - root.lo
        assert ext[0] == ext[1] == ext[2] > np.ptp(pts, axis=0).max()
        assert _inside(pts, root, 0.0)


# ---------------------------------------------------------------------------
# parity with the recursive per-cell build
# ---------------------------------------------------------------------------


def assert_same_tree(cloud, cfg):
    """Depth-first, node by node and bit for bit: the per-depth build against
    the recursive one."""
    new = list(iter_nodes(build_octree(cloud, cfg)))
    old = list(iter_nodes(build_octree_recursive(cloud, cfg)))
    assert len(new) == len(old)
    for a, b in zip(new, old):
        assert (a.depth, a.count, len(a.children)) == (b.depth, b.count, len(b.children))
        assert a.lo.tobytes() == b.lo.tobytes()
        assert a.hi.tobytes() == b.hi.tobytes()
        if b.point_indices is None:
            assert a.point_indices is None
        else:
            assert a.point_indices.dtype == np.int64
            assert np.array_equal(a.point_indices, b.point_indices)
        assert a.reps.dtype == REP_DTYPE
        assert a.reps["position"].tobytes() == np.array([r[0] for r in b.reps]).tobytes()
        assert a.reps["weight"].tolist() == [r[1] for r in b.reps]
        assert a.reps["scatter"].tobytes() == np.array([r[2] for r in b.reps]).tobytes()


def _lattice():
    # every coordinate an integer 0..8: points sit exactly on the centre
    # planes of the root and of every depth-2 node
    axis = np.arange(9.0)
    return np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)


def _parity_clouds():
    rng = np.random.default_rng(53)
    line = np.outer(rng.uniform(-2, 3, 300), [0.3, -1.0, 2.0]) + [1.0, 2.0, 3.0]
    planar = rng.uniform(0, 1, size=(400, 3))
    planar[:, 2] = 0.0
    return {
        "one-point": np.array([[1.0, 2.0, 3.0]]),
        "two-coincident": np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]),
        "duplicates": np.repeat(rng.normal(size=(50, 3)), 20, axis=0),
        "planar": planar,
        "collinear": line,
        "lattice": _lattice(),
        # root cubes a few ulps wide and, for coincident points, of zero width
        "far-offset": 1e10 + rng.uniform(0.0, 1e-6, size=(60, 3)),
        "far-coincident": np.full((40, 3), 1e10),
        "normal": rng.normal(size=(3000, 3)),
        "cylinder": make_object("cylinder", 3000, rng).points,
    }


_PARITY_CLOUDS = _parity_clouds()


@pytest.mark.parametrize("name", sorted(_PARITY_CLOUDS))
@pytest.mark.parametrize("reps_per_node", [1, 8, 27, 30])
def test_build_matches_recursive_build(name, reps_per_node):
    cloud = PointCloud(_PARITY_CLOUDS[name])
    assert_same_tree(cloud, OctreeConfig(reps_per_node=reps_per_node))
    assert_same_tree(cloud, OctreeConfig(leaf_capacity=8, reps_per_node=reps_per_node))


@pytest.mark.parametrize("name", ["duplicates", "lattice", "collinear", "far-offset"])
def test_build_matches_recursive_build_to_depth_16(name):
    assert_same_tree(PointCloud(_PARITY_CLOUDS[name]), OctreeConfig(max_depth=16, leaf_capacity=1))


def test_build_matches_recursive_build_with_huge_grid():
    # g**3 near 2**62: a node * g**3 + cell key would overflow int64
    cfg = OctreeConfig(leaf_capacity=8, reps_per_node=2**62)
    assert_same_tree(PointCloud(_PARITY_CLOUDS["normal"][:400]), cfg)


_parity_coords = st.one_of(
    st.floats(-50.0, 50.0), st.sampled_from([-1.0, -0.0, 0.0, 0.25, 1.0, 3.0])
)


@settings(max_examples=150, deadline=None)
@given(
    points=arrays(np.float64, st.tuples(st.integers(1, 250), st.just(3)), elements=_parity_coords),
    max_depth=st.integers(1, 10),
    leaf_capacity=st.integers(1, 40),
    reps_per_node=st.integers(1, 30),
)
def test_build_matches_recursive_build_on_random_clouds(
    points, max_depth, leaf_capacity, reps_per_node
):
    assert_same_tree(PointCloud(points), OctreeConfig(max_depth, leaf_capacity, reps_per_node))
