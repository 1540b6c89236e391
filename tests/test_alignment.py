import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lidarshape.alignment import (
    FEATURE_NAMES,
    ICPConfig,
    _single_linkage,
    align_group,
    feature_ranges_for_group,
    icp_4dof,
    shape_features,
    similarity_matrix,
    write_merges_csv,
    write_similarity_csv,
    write_transforms_csv,
)
from lidarshape.core import PointCloud, Transform4DOF, apply_transform, emd_1d
from lidarshape.shapedist import SDConfig
from lidarshape.synth import make_object
from scipy.spatial import cKDTree

from _oracles import single_linkage_scan


def blob(rng, n=200):
    """Anisotropic random cloud; distinct principal axes, no symmetry."""
    pts = rng.normal(size=(n, 3)) * np.array([2.0, 0.8, 0.5])
    pts[:, 2] += 0.05 * pts[:, 0] ** 2  # bend so it is not mirror-symmetric
    return PointCloud(pts)


def random_4dof(rng, max_theta=math.pi, t_scale=2.0):
    return Transform4DOF(
        tx=rng.uniform(-t_scale, t_scale),
        ty=rng.uniform(-t_scale, t_scale),
        tz=rng.uniform(-t_scale, t_scale),
        theta=rng.uniform(-max_theta, max_theta),
    )


# ---------------------------------------------------------------------------
# shape features
# ---------------------------------------------------------------------------


def test_uniform_box_has_flat_height_histogram():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 1, size=(20_000, 3))
    cloud = PointCloud(pts)
    ranges = feature_ranges_for_group([cloud])
    feats = shape_features(cloud, ranges, SDConfig(sample_budget=5_000))
    mass = feats["height"].mass
    assert mass.max() - mass.min() < 0.01  # uniform within sampling noise


def test_features_invariant_under_4dof():
    rng = np.random.default_rng(5)
    cloud = blob(rng)
    ranges = feature_ranges_for_group([cloud])
    cfg = SDConfig(sample_budget=3_000, seed=11)
    base = shape_features(cloud, ranges, cfg)
    for _ in range(10):
        moved = apply_transform(cloud, random_4dof(rng))
        feats = shape_features(moved, ranges, cfg)
        for name in FEATURE_NAMES:
            gap = np.abs(feats[name].mass - base[name].mass).max()
            assert gap < 1e-9, name


def test_single_point_features_degenerate():
    cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]))
    ranges = feature_ranges_for_group([cloud])
    feats = shape_features(cloud, ranges, SDConfig())
    assert tuple(feats) == FEATURE_NAMES
    for name in FEATURE_NAMES:
        h = feats[name]
        assert h.total() == pytest.approx(1.0)
        assert h.mass[0] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# similarity matrix
# ---------------------------------------------------------------------------


def test_similarity_entry_is_mean_of_five_emds():
    rng = np.random.default_rng(9)
    objs = [blob(rng), blob(rng), blob(rng, n=60)]
    cfg = SDConfig(sample_budget=2_000, seed=1)
    s = similarity_matrix(objs, cfg)
    ranges = feature_ranges_for_group(objs)
    fa, fb = (shape_features(o, ranges, cfg) for o in objs[:2])
    assert s[0, 1] == sum(emd_1d(fa[n], fb[n]) for n in FEATURE_NAMES) / len(FEATURE_NAMES)
    assert np.all(np.diag(s) == 0.0)
    assert np.array_equal(s, s.T)


def test_similarity_duplicate_objects_zero_entry():
    rng = np.random.default_rng(11)
    a = blob(rng, n=100)
    objs = [a, PointCloud(a.points.copy()), blob(rng, n=100)]
    s = similarity_matrix(objs, SDConfig(sample_budget=2_000))
    assert s[0, 1] == pytest.approx(0.0, abs=1e-12)
    assert s[0, 2] > 0


def test_similarity_symmetric_zero_diagonal():
    rng = np.random.default_rng(13)
    objs = [blob(rng, n=80) for _ in range(6)]
    s = similarity_matrix(objs, SDConfig(sample_budget=2_000))
    assert np.abs(s - s.T).max() < 1e-12
    assert np.all(np.diag(s) == 0)
    assert np.all(s >= 0)


def test_similarity_invariant_under_independent_4dof():
    rng = np.random.default_rng(17)
    objs = [blob(rng, n=120) for _ in range(4)]
    s0 = similarity_matrix(objs, SDConfig(sample_budget=2_000, seed=3))
    moved = [apply_transform(o, random_4dof(rng)) for o in objs]
    s1 = similarity_matrix(moved, SDConfig(sample_budget=2_000, seed=3))
    assert np.abs(s0 - s1).max() < 1e-6


def test_similarity_separates_shape_clusters():
    rng = np.random.default_rng(19)
    spheres = [make_object("sphere", 150, rng, jitter=0.002) for _ in range(3)]
    poles = [make_object("pole", 150, rng, jitter=0.002) for _ in range(3)]
    s = similarity_matrix(spheres + poles, SDConfig(sample_budget=3_000))
    within = [s[i, j] for i in range(3) for j in range(3) if i < j]
    within += [s[i, j] for i in range(3, 6) for j in range(3, 6) if i < j]
    across = [s[i, j] for i in range(3) for j in range(3, 6)]
    assert max(within) < min(across)


# ---------------------------------------------------------------------------
# icp_4dof
# ---------------------------------------------------------------------------


def test_icp_identity_case():
    rng = np.random.default_rng(23)
    cloud = blob(rng)
    t, rms = icp_4dof(cloud, cloud)
    assert rms[-1] == pytest.approx(0.0, abs=1e-12)
    assert abs(t.theta) < 1e-12
    assert abs(t.tx) + abs(t.ty) + abs(t.tz) < 1e-12


def test_icp_has_no_tilt_dof():
    # output reproduces rotation-about-z + translation exactly on every point
    rng = np.random.default_rng(29)
    cloud = blob(rng)
    planted = Transform4DOF(tx=0.4, ty=-0.2, tz=0.7, theta=0.3)
    target = apply_transform(cloud, planted)
    t, _ = icp_4dof(cloud, target, ICPConfig(trim_fraction=0.0))
    rebuilt = t.apply_points(cloud.points)
    direct = Transform4DOF(t.tx, t.ty, t.tz, t.theta).apply_points(cloud.points)
    assert np.abs(rebuilt - direct).max() < 1e-12
    assert np.abs(rebuilt[:, 2] - (cloud.points[:, 2] + t.tz)).max() < 1e-12


def test_icp_recovers_planted_transform_noiseless():
    rng = np.random.default_rng(31)
    cloud = blob(rng)
    planted = Transform4DOF(tx=1.0, ty=-0.5, tz=0.3, theta=math.radians(20))
    target = apply_transform(cloud, planted)
    t, rms = icp_4dof(cloud, target)
    assert abs(t.theta - planted.theta) < math.radians(0.1)
    assert abs(t.tx - planted.tx) < 1e-3
    assert abs(t.ty - planted.ty) < 1e-3
    assert abs(t.tz - planted.tz) < 1e-3
    assert rms[-1] < 1e-6


def test_icp_planted_recovery_with_noise_50_trials():
    rng = np.random.default_rng(37)
    good = 0
    for trial in range(50):
        cloud = make_object("lshape", 150, rng, jitter=0.0)
        diam = cloud.bbox_diagonal()
        planted = random_4dof(rng, max_theta=math.radians(30), t_scale=0.1 * diam)
        noisy = apply_transform(cloud, planted).points + rng.normal(
            scale=0.01 * diam, size=(150, 3)
        )
        t, _ = icp_4dof(cloud, PointCloud(noisy))
        theta_err = abs(Transform4DOF(theta=t.theta - planted.theta).theta)
        trans_err = math.dist((t.tx, t.ty, t.tz), (planted.tx, planted.ty, planted.tz))
        if theta_err < math.radians(2) and trans_err < 0.05 * diam:
            good += 1
    assert good >= 48


def test_icp_trimmed_rms_monotone():
    rng = np.random.default_rng(41)
    cloud = blob(rng, n=150)
    planted = random_4dof(rng, max_theta=math.radians(25), t_scale=0.3)
    target = apply_transform(cloud, planted)
    _, series = icp_4dof(cloud, target, ICPConfig(rms_tol=0.0))
    assert len(series) > 3
    assert all(series[i + 1] <= series[i] + 1e-12 for i in range(len(series) - 1))


def test_icp_procrustes_matches_grid_search():
    rng = np.random.default_rng(43)
    from lidarshape.alignment import _fit_4dof

    src = rng.normal(size=(60, 3))
    planted = Transform4DOF(tx=0.3, ty=0.1, tz=0.0, theta=0.7)
    dst = planted.apply_points(src) + rng.normal(scale=0.02, size=(60, 3))
    fit = _fit_4dof(src, dst)

    def sse(theta):
        c, s = math.cos(theta), math.sin(theta)
        rot = src[:, :2] @ np.array([[c, -s], [s, c]]).T
        shift = dst[:, :2].mean(axis=0) - rot.mean(axis=0)
        return float(np.square(rot + shift - dst[:, :2]).sum())

    grid = np.arange(-math.pi, math.pi, math.radians(0.1))
    best = grid[np.argmin([sse(t) for t in grid])]
    assert abs(fit.theta - best) <= math.radians(0.1) + 1e-12


def test_icp_degenerate_correspondences():
    src = PointCloud(np.array([[0.0, 0, 0], [0.0, 0, 1], [0.0, 0, 2]]))
    dst = PointCloud(np.array([[5.0, 5, 0], [5.0, 5, 1], [5.0, 5, 2]]))
    with pytest.raises(ValueError, match="degenerate"):
        icp_4dof(src, dst)


def test_icp_too_few_points():
    c = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    with pytest.raises(ValueError):
        icp_4dof(c, c)


# ---------------------------------------------------------------------------
# align_group
# ---------------------------------------------------------------------------


def mean_nn_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(cKDTree(b).query(a)[0].mean())


def test_align_two_identical_objects():
    rng = np.random.default_rng(47)
    cloud = blob(rng)
    objs = [cloud, PointCloud(cloud.points.copy())]
    out = align_group(objs, similarity_matrix(objs, SDConfig(sample_budget=2_000)))
    assert len(out.merges) == 1
    t = out.merges[0].transform
    assert abs(t.theta) < 1e-9
    assert abs(t.tx) + abs(t.ty) + abs(t.tz) < 1e-9


def test_align_group_structure():
    rng = np.random.default_rng(53)
    objs = [blob(rng, n=80) for _ in range(5)]
    out = align_group(objs, similarity_matrix(objs, SDConfig(sample_budget=1_000)))
    assert len(out.merges) == 4
    assert len(out.transforms) == 5


def test_align_group_planted_copies_converge():
    rng = np.random.default_rng(59)
    base = make_object("lshape", 200, rng, jitter=0.0)
    diam = base.bbox_diagonal()
    objs = [base]
    for _ in range(3):
        t = random_4dof(rng, max_theta=math.radians(25), t_scale=0.3 * diam)
        objs.append(apply_transform(base, t))
    out = align_group(objs, similarity_matrix(objs, SDConfig(sample_budget=2_000)))
    aligned = [t.apply_points(o.points) for t, o in zip(out.transforms, objs)]
    for i in range(4):
        for j in range(4):
            if i != j:
                assert mean_nn_distance(aligned[i], aligned[j]) <= 0.05 * diam


def test_align_group_deterministic_merge_order():
    rng = np.random.default_rng(61)
    objs = [blob(rng, n=60) for _ in range(4)]
    a = align_group(objs, similarity_matrix(objs, SDConfig(sample_budget=1_000, seed=5)))
    b = align_group(objs, similarity_matrix(objs, SDConfig(sample_budget=1_000, seed=5)))
    assert [(m.source_object, m.target_object) for m in a.merges] == [
        (m.source_object, m.target_object) for m in b.merges
    ]


@st.composite
def tied_similarities(draw):
    """Symmetric 2-8 object matrices with zero diagonal and small integer
    entries, so equal distances and equal set sizes are common."""
    n = draw(st.integers(2, 8))
    upper = draw(st.lists(st.integers(0, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    sim = np.zeros((n, n))
    sim[np.triu_indices(n, 1)] = upper
    return sim + sim.T


@settings(max_examples=300, deadline=None)
@given(tied_similarities())
def test_single_linkage_matches_set_scan(sim):
    merges = [
        (tuple(kept), tuple(moved), target, source, dist)
        for kept, moved, target, source, dist in _single_linkage(sim)
    ]
    assert merges == single_linkage_scan(sim)


def test_align_group_records_follow_set_scan():
    rng = np.random.default_rng(71)
    objs = [blob(rng, n=60) for _ in range(5)]
    objs.append(PointCloud(objs[2].points.copy()))  # a distance-0 tie
    sim = similarity_matrix(objs, SDConfig(sample_budget=1_000))
    out = align_group(objs, sim)
    records = [
        (m.kept_set, m.merged_set, m.target_object, m.source_object, m.distance)
        for m in out.merges
    ]
    assert records == single_linkage_scan(sim)


# ---------------------------------------------------------------------------
# CSV exports
# ---------------------------------------------------------------------------


def test_csv_exports(tmp_path):
    rng = np.random.default_rng(67)
    objs = [blob(rng, n=60) for _ in range(3)]
    sim = similarity_matrix(objs, SDConfig(sample_budget=1_000))
    out = align_group(objs, sim)

    write_similarity_csv(sim, tmp_path / "sim.csv")
    lines = (tmp_path / "sim.csv").read_text().splitlines()
    assert len(lines) == 4

    write_transforms_csv(out, tmp_path / "t.csv")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    assert lines[0] == "object_id,tx,ty,tz,theta"
    assert len(lines) == 4

    write_merges_csv(out, tmp_path / "m.csv")
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert len(lines) == 3  # header + n-1 merges
