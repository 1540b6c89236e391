import itertools
import math

import numpy as np
import pytest

from lidarshape.core import Histogram1D, PointCloud, Transform4DOF, apply_transform
from lidarshape.octree import OctreeConfig, build_octree
from lidarshape.shapedist import (
    KINDS,
    SDConfig,
    _all_combinations,
    _gaussian_bin_mass,
    exact_sd,
    hsd,
    histogram_l1,
    measure,
    moment_votes,
    sd_ranges,
    write_features_csv,
)
from lidarshape.synth import make_object

from _oracles import brute_force_histogram


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


def test_d2_345_triangle():
    assert measure("D2", [(0, 0, 0), (3, 4, 0)]) == 5.0


def test_r3_equilateral_inradius():
    tri = [(0, 0, 0), (2, 0, 0), (1, math.sqrt(3), 0)]
    assert measure("R3", tri) == pytest.approx(2 / (2 * math.sqrt(3)), abs=1e-9)


def test_t3_coplanar_is_zero():
    quad = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    assert measure("T3", quad) == pytest.approx(0.0, abs=1e-15)


def test_t3_unit_corner_tetrahedron():
    quad = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert measure("T3", quad) == pytest.approx(1 / 6, abs=1e-12)


def test_a3_right_triangle():
    assert measure("A3", [(0, 0, 0), (3, 0, 0), (0, 4, 0)]) == pytest.approx(6.0)


def test_r3_degenerate_triangle_is_zero():
    assert measure("R3", [(0, 0, 0), (1, 0, 0), (2, 0, 0)]) == 0.0


def test_measure_wrong_arity():
    with pytest.raises(ValueError):
        measure("D2", [(0, 0, 0), (1, 0, 0), (2, 0, 0)])
    with pytest.raises(ValueError):
        measure("T3", [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError):
        measure("D5", [(0, 0, 0), (1, 0, 0)])


def test_measure_rigid_invariance():
    rng = np.random.default_rng(3)
    for kind, arity in (("D2", 2), ("A3", 3), ("R3", 3), ("T3", 4)):
        pts = rng.uniform(-2, 2, size=(arity, 3))
        t = Transform4DOF(tx=1.2, ty=-0.7, tz=3.0, theta=0.9)
        moved = t.apply_points(pts)
        assert measure(kind, moved) == pytest.approx(measure(kind, pts), abs=1e-9)


# ---------------------------------------------------------------------------
# exact_sd
# ---------------------------------------------------------------------------


def test_exact_sd_two_points_all_mass_at_distance():
    cloud = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    feat = exact_sd(cloud, "D2", SDConfig(lo=0.0, hi=2.0))
    h = feat.histogram
    assert h.mass[h.bin_index(1.0)] == 1.0


def test_exact_sd_collinear_a3_mass_in_bin_zero():
    cloud = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]))
    feat = exact_sd(cloud, "A3", SDConfig(lo=0.0, hi=1.0))
    assert feat.histogram.mass[0] == 1.0


def test_exact_sd_too_few_points():
    cloud = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    with pytest.raises(ValueError):
        exact_sd(cloud, "A3")


def test_exact_sd_matches_brute_force_enumeration():
    rng = np.random.default_rng(29)
    pts = rng.uniform(0, 1, size=(18, 3))
    cloud = PointCloud(pts)
    for kind in KINDS:
        lo, hi = sd_ranges(cloud.bbox_diagonal())[kind]
        feat = exact_sd(cloud, kind, SDConfig(lo=lo, hi=hi, bins=16))
        oracle = brute_force_histogram(pts, kind, lo, hi, 16)
        assert np.allclose(feat.histogram.mass, oracle, atol=1e-12)


def test_sampled_budget_covering_enumeration_is_exact():
    # budget >= tuple count means the sampled path is never taken
    rng = np.random.default_rng(57)
    cloud = PointCloud(rng.uniform(0, 1, size=(50, 3)))
    lo, hi = sd_ranges(cloud.bbox_diagonal())["D2"]
    full = exact_sd(cloud, "D2", SDConfig(lo=lo, hi=hi, sample_budget=5_000_000))
    tight = exact_sd(cloud, "D2", SDConfig(lo=lo, hi=hi, sample_budget=math.comb(50, 2)))
    assert np.array_equal(full.histogram.mass, tight.histogram.mass)


def test_exact_sd_permutation_invariant_when_enumerated():
    rng = np.random.default_rng(61)
    pts = rng.uniform(0, 1, size=(15, 3))
    perm = rng.permutation(15)
    cfg = SDConfig(lo=0.0, hi=2.0, bins=32)
    a = exact_sd(PointCloud(pts), "A3", cfg)
    b = exact_sd(PointCloud(pts[perm]), "A3", cfg)
    assert np.allclose(a.histogram.mass, b.histogram.mass, atol=1e-12)


def test_exact_sd_sampling_is_seeded():
    rng = np.random.default_rng(67)
    cloud = PointCloud(rng.uniform(0, 1, size=(300, 3)))
    cfg = SDConfig(lo=0.0, hi=2.0, sample_budget=10_000, seed=99)
    a = exact_sd(cloud, "A3", cfg)
    b = exact_sd(cloud, "A3", cfg)
    assert np.array_equal(a.histogram.mass, b.histogram.mass)


# ---------------------------------------------------------------------------
# moment_votes
# ---------------------------------------------------------------------------


def one_vote(kind, centers, scatters):
    """(mu, sigma2) of the single vote over reps at `centers`."""
    positions = np.asarray(centers, dtype=np.float64)
    idx = np.arange(len(positions))[None, :]
    mu, sigma2 = moment_votes(kind, positions, np.asarray(scatters, dtype=np.float64), idx)
    assert mu.shape == sigma2.shape == (1,)
    return float(mu[0]), float(sigma2[0])


def test_moment_vote_zero_scatter_reduces_to_measure():
    mu, sigma2 = one_vote("D2", [(0, 0, 0), (5, 0, 0)], [0.0, 0.0])
    assert mu == 5.0
    assert sigma2 == 0.0


def test_moment_vote_d2_sigma_is_sum_of_scatters():
    mu, sigma2 = one_vote("D2", [(0, 0, 0), (2, 0, 0)], [0.04, 0.09])
    assert mu == pytest.approx(2.0)
    assert sigma2 == pytest.approx(0.13, abs=1e-12)


def test_moment_vote_degenerate_uses_remaining_terms():
    # coincident reps: D2 gradient undefined, sigma2 falls back gracefully
    mu, sigma2 = one_vote("D2", [(1, 1, 1), (1, 1, 1)], [0.01, 0.0])
    assert mu == 0.0
    assert np.isfinite(sigma2)
    assert sigma2 >= 0.0


def test_moment_vote_a3_matches_monte_carlo():
    """Delta-method mean/variance vs sampling point triples from isotropic
    Gaussians (per-axis variance = scatter) centered at the reps."""
    rng = np.random.default_rng(71)
    centers = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.3, 0.9, 0.2]])
    d = 1.0
    scatters = np.array([(0.08 * d) ** 2, (0.1 * d) ** 2, (0.05 * d) ** 2])
    mu, sigma2 = one_vote("A3", centers, scatters)

    n = 100_000
    samples = [
        centers[i] + rng.normal(scale=math.sqrt(scatters[i]), size=(n, 3)) for i in range(3)
    ]
    areas = 0.5 * np.linalg.norm(
        np.cross(samples[1] - samples[0], samples[2] - samples[0]), axis=1
    )
    assert mu == pytest.approx(float(areas.mean()), rel=0.03)
    assert sigma2 == pytest.approx(float(areas.var()), rel=0.25)


def test_moment_vote_t3_matches_monte_carlo():
    rng = np.random.default_rng(73)
    centers = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0.2, 0.3, 1.1]])
    scatters = np.full(4, 0.05**2)
    mu, sigma2 = one_vote("T3", centers, scatters)

    n = 100_000
    s = [centers[i] + rng.normal(scale=0.05, size=(n, 3)) for i in range(4)]
    vols = np.abs(np.einsum("ij,ij->i", s[1] - s[0], np.cross(s[2] - s[0], s[3] - s[0]))) / 6.0
    assert mu == pytest.approx(float(vols.mean()), rel=0.03)
    assert sigma2 == pytest.approx(float(vols.var()), rel=0.25)


def test_moment_votes_rows_are_independent():
    # a degenerate row (central-difference fallback) next to regular rows
    # gets the same moments as it does on its own
    positions = np.array([[0.0, 0, 0], [2.0, 0, 0], [2.0, 0, 0], [0.5, 1.5, 0.3]])
    scatters = np.array([0.01, 0.04, 0.02, 0.03])
    idx = np.array([[0, 1, 3], [1, 2, 0], [3, 0, 2]])
    mu, sigma2 = moment_votes("R3", positions, scatters, idx)
    for row in range(3):
        alone = one_vote("R3", positions[idx[row]], scatters[idx[row]])
        assert (mu[row], sigma2[row]) == pytest.approx(alone, rel=1e-12, abs=1e-15)


# ---------------------------------------------------------------------------
# _gaussian_bin_mass
# ---------------------------------------------------------------------------


def one_gaussian(h, mu, sigma2, weight):
    """Per-bin mass of one vote N(mu, sigma2) carrying `weight`."""
    return _gaussian_bin_mass(
        h.edges(), np.array([mu]), np.array([math.sqrt(sigma2)]), np.array([weight])
    )


def test_vote_point_mass_lands_mid_bin():
    h = Histogram1D.empty(0.0, 8.0, 8)
    out = one_gaussian(h, mu=3.5, sigma2=0.0, weight=2.0)
    assert out[3] == 2.0
    assert out.sum() == 2.0


def test_vote_three_sigma_mass_coverage():
    h = Histogram1D.empty(0.0, 1.0, 100)
    sigma = 0.01
    out = one_gaussian(h, mu=0.5, sigma2=sigma**2, weight=1.0)
    center = h.bin_index(0.5)
    within = out[center - 3 : center + 4].sum()
    assert within >= 0.997


def test_vote_mass_conservation_with_clamping():
    rng = np.random.default_rng(83)
    for _ in range(50):
        h = Histogram1D.empty(0.0, 1.0, 16)
        mu = rng.uniform(-0.5, 1.5)
        sigma2 = rng.uniform(0, 0.3) ** 2
        weight = rng.uniform(0.1, 4.0)
        out = one_gaussian(h, mu, sigma2, weight)
        assert out.sum() == pytest.approx(weight, abs=1e-9)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_all_combinations_match_itertools(r):
    for n in range(31):
        got = _all_combinations(n, r)
        expected = np.array(list(itertools.combinations(range(n), r)), dtype=np.int64)
        assert got.dtype == np.int64
        assert got.shape == (math.comb(n, r), r)
        assert np.array_equal(got, expected.reshape(-1, r))


# ---------------------------------------------------------------------------
# hsd
# ---------------------------------------------------------------------------


def test_hsd_zero_scatter_reps_reduce_to_exact():
    pts = np.array([[0.0, 0, 0], [10.0, 0, 0]])
    cloud = PointCloud(pts)
    root = build_octree(cloud, OctreeConfig(leaf_capacity=1, max_depth=8))
    cfg = SDConfig(lo=0.0, hi=12.0)
    exact = exact_sd(cloud, "D2", cfg)
    approx = hsd(root, "D2", 1, cfg)
    assert np.allclose(exact.histogram.mass, approx.histogram.mass, atol=1e-12)


def test_hsd_single_rep_errors():
    cloud = PointCloud(np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]]))
    root = build_octree(cloud)
    assert len(root.reps) == 1
    with pytest.raises(ValueError, match="representatives"):
        hsd(root, "D2", 1, SDConfig(lo=0.0, hi=1.0))


def test_hsd_close_to_exact_on_random_object():
    rng = np.random.default_rng(91)
    cloud = make_object("cylinder", 300, rng)
    root = build_octree(cloud)
    ranges = sd_ranges(cloud.bbox_diagonal())
    for kind in KINDS:
        lo, hi = ranges[kind]
        cfg = SDConfig(lo=lo, hi=hi, seed=5)
        gap = histogram_l1(exact_sd(cloud, kind, cfg).histogram, hsd(root, kind, 3, cfg).histogram)
        assert gap <= 0.15


def test_hsd_weight_sampling_is_seeded():
    rng = np.random.default_rng(97)
    cloud = make_object("box", 2000, rng)
    root = build_octree(cloud)
    cfg = SDConfig(lo=0.0, hi=4.0, sample_budget=5_000, seed=12)
    a = hsd(root, "D2", 4, cfg)
    b = hsd(root, "D2", 4, cfg)
    assert np.array_equal(a.histogram.mass, b.histogram.mass)


def test_hsd_all_unit_reps_equals_exhaustive():
    # leaf_capacity 1 and deep levels: every rep is one point with zero
    # scatter, so HSD collapses to the exhaustive enumeration exactly
    rng = np.random.default_rng(99)
    pts = rng.uniform(0, 1, size=(25, 3))
    cloud = PointCloud(pts)
    root = build_octree(cloud, OctreeConfig(max_depth=16, leaf_capacity=1, reps_per_node=8))
    for kind in ("D2", "A3"):
        cfg = SDConfig(lo=0.0, hi=2.0, bins=32)
        ex = exact_sd(cloud, kind, cfg)
        ap = hsd(root, kind, 16, cfg)
        assert np.allclose(ex.histogram.mass, ap.histogram.mass, atol=1e-12)


def test_hsd_histogram_normalized():
    rng = np.random.default_rng(101)
    cloud = make_object("sphere", 500, rng)
    root = build_octree(cloud)
    feat = hsd(root, "A3", 2, SDConfig(lo=0.0, hi=3.0))
    assert feat.histogram.total() == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_write_features_csv(tmp_path):
    rng = np.random.default_rng(103)
    cloud = PointCloud(rng.uniform(0, 1, size=(20, 3)))
    feats = [exact_sd(cloud, k, SDConfig(lo=0.0, hi=2.0, bins=8)) for k in ("D2", "A3")]
    out = tmp_path / "f.csv"
    write_features_csv(feats, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "kind,bin_index,bin_lo,bin_hi,mass"
    assert len(lines) == 1 + 2 * 8
    assert lines[1].startswith("D2,0,")
