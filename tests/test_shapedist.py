import itertools
import math
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from scipy.special import ndtr
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import lidarshape.shapedist as shapedist
from lidarshape.alignment import feature_ranges_for_group, shape_features
from lidarshape.core import DIAMETER_WINDOW, Histogram1D, PointCloud, Transform4DOF, apply_transform
from lidarshape.octree import OctreeConfig, build_octree, nodes_at_level
from lidarshape.shapedist import (
    KINDS,
    ARITY,
    SDConfig,
    SDFeature,
    _all_combinations,
    _gaussian_bin_mass,
    _normal_cdf,
    _sample_tuples,
    exact_sd,
    hsd,
    measure_many,
    moment_votes,
    sd_ranges,
    write_features_csv,
)
from lidarshape.synth import make_object

import _oracles
from _oracles import (
    brute_force_histogram,
    exact_sd_one_shot,
    gaussian_bin_mass_per_call,
    gaussian_bin_mass_windowed,
    histogram_l1,
    moment_votes_one_shot,
    sample_tuples_searchsorted,
)


# ---------------------------------------------------------------------------
# measure_many on one tuple
# ---------------------------------------------------------------------------


def measure(kind, pts):
    """The kernel's value for one tuple, passed as one-column (3, 1) arrays."""
    return float(measure_many(kind, [np.asarray(p, dtype=np.float64)[:, None] for p in pts])[0][0])


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
# measure_many against the separate chains it replaced
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=40, deadline=None)
@given(
    unit=arrays(np.float64, (10, 3), elements=st.floats(-1.0, 1.0)),
    scale=st.floats(1e-30, 1e30),
    rounded=st.booleans(),
    idx=arrays(np.int64, (30, 4), elements=st.integers(0, 9)),
    spread=arrays(np.float64, 10, elements=st.floats(0.0, 1.0)),
)
def test_kernel_matches_old_chains_property(kind, unit, scale, rounded, idx, spread):
    """Values and gradient magnitudes on (3, N) coordinate rows are bitwise
    the old `measure_many` and `gradient_magnitudes` on the (N, 3) slots, and
    vote moments bitwise the one-shot ones, degenerate rows included, at
    scales from 1e-30 to 1e30. Rows with a non-finite magnitude (D2, R3, T3)
    vote sigma2 = 0; A3's magnitudes stay finite."""
    positions = np.round(unit * scale) if rounded else unit * scale
    # rep 1 on rep 0, rep 3 on the line through reps 0 and 2, rep 4 in the
    # plane of reps 0, 2 and 5: exactly so for integer coordinates
    positions[1] = positions[0]
    positions[3] = 2.0 * positions[2] - positions[0]
    positions[4] = positions[2] + positions[5] - positions[0]
    parts = [positions[idx[:, i]] for i in range(ARITY[kind])]
    rows = [np.ascontiguousarray(p.T) for p in parts]
    values, mags = measure_many(kind, rows, gradients=True)
    assert values.tobytes() == _oracles.measure_many(kind, parts).tobytes()
    assert measure_many(kind, rows)[0].tobytes() == values.tobytes()
    old = _oracles.gradient_magnitudes(kind, parts)
    assert [m.tobytes() for m in mags] == [m.tobytes() for m in old]
    scatters = spread * (scale * scale)  # zeros among them
    tuples = idx[:, : ARITY[kind]]
    mu, sigma2 = moment_votes(kind, positions, scatters, tuples)
    mu_ref, sigma2_ref = moment_votes_one_shot(kind, positions, scatters, tuples)
    assert (mu.tobytes(), sigma2.tobytes()) == (mu_ref.tobytes(), sigma2_ref.tobytes())
    bad = ~np.isfinite(np.array(mags)).all(axis=0)
    if kind == "A3":
        assert not bad.any()
    else:
        assert (sigma2[bad] == 0.0).all()


# ---------------------------------------------------------------------------
# exact_sd
# ---------------------------------------------------------------------------


def test_exact_sd_two_points_all_mass_at_distance():
    cloud = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    feat = exact_sd(cloud, "D2", SDConfig(lo=0.0, hi=2.0))
    h = feat.histogram
    assert h.mass[Histogram1D.bin_indices([1.0], h.lo, h.hi, h.bins)[0]] == 1.0


def test_exact_sd_collinear_a3_mass_in_bin_zero():
    cloud = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]))
    feat = exact_sd(cloud, "A3", SDConfig(lo=0.0, hi=1.0))
    assert feat.histogram.mass[0] == 1.0


def test_exact_sd_too_few_points():
    cloud = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    with pytest.raises(ValueError):
        exact_sd(cloud, "A3")


def test_sd_config_bins_capped():
    assert SDConfig(bins=shapedist.MAX_BINS).bins == shapedist.MAX_BINS
    cap = shapedist.MAX_BINS
    with pytest.raises(ValueError, match=f"bins must be at most {cap}, got {cap + 1}"):
        SDConfig(bins=cap + 1)


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


def test_moment_vote_coincident_d2_is_point_mass():
    # coincident reps: D2 has no gradient at 0, so the vote has no spread
    mu, sigma2 = one_vote("D2", [(1, 1, 1), (1, 1, 1)], [0.01, 0.04])
    assert mu == 0.0
    assert sigma2 == 0.0


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
    # a degenerate row (a point mass: its slots add 0) next to regular rows
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
    h = Histogram1D(0.0, 8.0, np.zeros(8))
    out = one_gaussian(h, mu=3.5, sigma2=0.0, weight=2.0)
    assert out[3] == 2.0
    assert out.sum() == 2.0


def test_point_votes_bin_as_bin_indices():
    h = Histogram1D(-1.0, 3.0, np.zeros(8))
    mu = np.array([np.inf, -np.inf, 1e300, -2.0, 0.0, 2.99])
    with np.errstate(all="raise"):
        out = _gaussian_bin_mass(h.edges(), mu, np.zeros(mu.size), np.ones(mu.size))
    want = np.bincount(Histogram1D.bin_indices(mu, h.lo, h.hi, h.bins), minlength=h.bins)
    assert out.tolist() == want.tolist() == [2, 0, 1, 0, 0, 0, 0, 3]


def test_sd_ranges_window():
    # every diameter `cloud_diameter` returns; its test_core tests own the window
    assert sd_ranges(0.0) == sd_ranges(1e-12)  # all points equal
    for d in DIAMETER_WINDOW:
        assert sd_ranges(d)["D2"] == (0.0, d)


def test_vote_three_sigma_mass_coverage():
    h = Histogram1D(0.0, 1.0, np.zeros(100))
    sigma = 0.01
    out = one_gaussian(h, mu=0.5, sigma2=sigma**2, weight=1.0)
    center = Histogram1D.bin_indices([0.5], h.lo, h.hi, h.bins)[0]
    within = out[center - 3 : center + 4].sum()
    assert within >= 0.997


def test_vote_mass_conservation_with_clamping():
    rng = np.random.default_rng(83)
    for _ in range(50):
        h = Histogram1D(0.0, 1.0, np.zeros(16))
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


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_weighted_sample_tuples_match_searchsorted(r):
    # skewed weights put many CDF steps in one lookup cell and leave others
    # empty; zero weights, a single-rep spike and a total short of 1 (draws
    # past the last step) are among them; 70k reps reach the largest lookup
    # table and r + 1 reps redraw many rows; budgets from one row to a
    # partial fourth block, and the uniform draws too
    block = shapedist.VOTE_BLOCK
    rng = np.random.default_rng(139)
    spiky = np.r_[np.zeros(5), 60.0, rng.uniform(0.0, 1.0, 40)]
    weights = (
        np.ones(127), rng.uniform(1, 30, 300) ** 4, spiky, np.arange(1.0, 9.0),
        rng.uniform(1, 30, 70_000) ** 4, np.arange(1.0, r + 2),
    )
    for w in weights:
        p = w / w.sum()
        for budget in (1, 5000, block - 1, block + 1, 3 * block + 17):
            for q in (None, p, p * (1 - 1e-3)):
                got = _sample_tuples(w.shape[0], r, budget, np.random.default_rng(7), p=q)
                want = sample_tuples_searchsorted(w.shape[0], r, budget, np.random.default_rng(7), p=q)
                assert np.array_equal(got, want)


# ---------------------------------------------------------------------------
# blocked votes and measurements against the one-shot oracles
# ---------------------------------------------------------------------------

BLOCKS = [1, 7, 16]


# A quantized vote's sigma is within 2^(1/16) of its own and its mean within
# sigma / 32 of its own, so its L1 to the windowed vote is at most
# 2 TV(N(0, 1), N(0, R^2)) + 2 TV(N(0, 1), N(1/32, 1)) per unit weight; the
# two scale densities cross at +-X.
R = 2.0 ** (1 / 16)
X = R * math.sqrt(2 * math.log(R) / (R * R - 1))
VOTE_L1 = 4 * (ndtr(X) - ndtr(X / R)) + 2 * (2 * ndtr(1 / 64) - 1)


def assert_mass_near_windowed(edges, mu, sigma, weight, per_weight=VOTE_L1):
    """Quantized vote mass against the windowed votes: equal totals, and
    L1 within `per_weight` of the total weight."""
    mass = _gaussian_bin_mass(edges, mu, sigma, weight)
    want = gaussian_bin_mass_windowed(edges, mu, sigma, weight)
    assert (mass >= 0).all()
    assert mass.sum() == pytest.approx(want.sum(), rel=1e-12)
    assert np.abs(mass - want).sum() <= per_weight * weight.sum() + 1e-12
    return mass


def assert_votes_match_one_shot(kind, positions, scatters, idx, edges):
    """Blocked moments are bitwise the one-shot ones; their vote mass is
    within the quantization bound of the windowed votes."""
    mu, sigma2 = moment_votes(kind, positions, scatters, idx)
    mu_ref, sigma2_ref = moment_votes_one_shot(kind, positions, scatters, idx)
    assert mu.tobytes() == mu_ref.tobytes()
    assert sigma2.tobytes() == sigma2_ref.tobytes()
    assert_mass_near_windowed(edges, mu, np.sqrt(sigma2), np.linspace(0.5, 2.0, idx.shape[0]))
    return mu, sigma2


def degenerate_reps(rng):
    """Reps 0 and 1 coincide, 0, 2 and 3 are collinear, 0, 2, 3 and 4 are
    coplanar (all exactly); reps 5-11 are in general position. Their D2, R3
    and T3 tuples vote point masses; the collinear A3 triple keeps the spread
    of its finite half-side magnitudes, which depends on which reps'
    scatters are read."""
    fixed = np.array(
        [[0.0, 0, 0.4], [0.0, 0, 0.4], [0.3, 0.7, 0.4], [0.6, 1.4, 0.4], [0.9, -0.2, 0.4]]
    )
    positions = np.vstack([fixed, rng.uniform(-1, 1, size=(7, 3))])
    return positions, rng.uniform(0.001, 0.05, size=12)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("kind", KINDS)
def test_blocked_votes_partial_last_block(monkeypatch, kind, block):
    monkeypatch.setattr(shapedist, "VOTE_BLOCK", block)
    rng = np.random.default_rng(107)
    positions, scatters = degenerate_reps(rng)
    idx = _sample_tuples(12, ARITY[kind], 37, rng)  # 37 rows: a partial last block
    assert_votes_match_one_shot(kind, positions, scatters, idx, np.linspace(0.0, 2.0, 17))


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("kind", KINDS)
def test_blocked_votes_degenerate_rows_at_block_boundaries(monkeypatch, kind, block):
    monkeypatch.setattr(shapedist, "VOTE_BLOCK", block)
    rng = np.random.default_rng(109)
    positions, scatters = degenerate_reps(rng)
    arity = ARITY[kind]
    degenerate = {"D2": [0, 1], "A3": [0, 2, 3], "R3": [0, 2, 3], "T3": [0, 2, 3, 4]}[kind]
    idx = np.array([rng.choice(np.arange(5, 12), arity, replace=False) for _ in range(3 * block + 3)])
    boundary_rows = [block - 1, block, 2 * block - 1, 2 * block]
    idx[boundary_rows] = degenerate
    _, sigma2 = assert_votes_match_one_shot(kind, positions, scatters, idx, np.linspace(0.0, 2.0, 17))
    if kind == "A3":
        assert (sigma2[boundary_rows] > 0).all()
    else:
        assert (sigma2[boundary_rows] == 0.0).all()


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("kind", KINDS)
def test_blocked_votes_point_and_smooth_votes_mixed(monkeypatch, kind, block):
    monkeypatch.setattr(shapedist, "VOTE_BLOCK", block)
    rng = np.random.default_rng(113)
    positions = rng.uniform(-1, 1, size=(10, 3))
    scatters = np.where(np.arange(10) < 6, 0.0, 0.01)  # tuples of reps 0-5 vote sigma = 0
    idx = np.vstack([_sample_tuples(6, ARITY[kind], 20, rng), _sample_tuples(10, ARITY[kind], 40, rng)])
    idx = idx[rng.permutation(60)]
    _, sigma2 = assert_votes_match_one_shot(kind, positions, scatters, idx, np.linspace(0.0, 1.5, 33))
    assert (sigma2 == 0).any() and (sigma2 > 0).any()


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("kind", KINDS)
def test_blocked_votes_clipped_at_both_ends(monkeypatch, kind, block):
    monkeypatch.setattr(shapedist, "VOTE_BLOCK", block)
    rng = np.random.default_rng(127)
    positions = rng.uniform(-1, 1, size=(14, 3))
    scatters = rng.uniform(0.0, 0.2, size=14)
    idx = _sample_tuples(14, ARITY[kind], 50, rng)
    mu, _ = moment_votes_one_shot(kind, positions, scatters, idx)
    lo, hi = np.quantile(mu, [0.25, 0.75])
    assert_votes_match_one_shot(kind, positions, scatters, idx, np.linspace(lo, hi, 9))


def test_gaussian_bin_mass_many_chunks_matches_one_shot():
    # 30k votes over sigma classes 1e-4 to 10^0.5 (window half-widths 1 to
    # the 2 * bins cap), several deposit chunks per class with a partial
    # last one, sigma = 0 votes among them and means beyond both ends of the
    # range
    rng = np.random.default_rng(131)
    n = 30_000
    mu = rng.uniform(-0.3, 1.3, size=n)
    sigma = np.where(rng.random(n) < 0.2, 0.0, 10.0 ** rng.uniform(-4, 0.5, size=n))
    weight = rng.uniform(0.1, 3.0, size=n)
    assert_mass_near_windowed(np.linspace(0.0, 1.0, 65), mu, sigma, weight, per_weight=1e-3)


def normal_cdf_grid():
    """0, magnitudes 1e-300 and 1e300, the erf/erfc branch point +-sqrt(1/2),
    the tails where the CDF saturates, and 10^5 normal draws at four scales."""
    special = np.array([0.0, 1e-300, math.sqrt(0.5), 1.0, 8.0, 40.0, 1e300])
    rng = np.random.default_rng(151)
    draws = [scale * rng.standard_normal(25_000) for scale in (1e-3, 1.0, 4.0, 12.0)]
    return np.concatenate([special, -special, *draws])


def test_normal_cdf_matches_ndtr():
    x = normal_cdf_grid()
    cdf = _normal_cdf(x)
    assert cdf.dtype == np.float64 and cdf.shape == x.shape
    assert np.abs(cdf - ndtr(x)).max() <= 4.5e-16
    assert (np.diff(_normal_cdf(np.sort(x))) >= 0).all()
    assert np.abs(cdf + _normal_cdf(-x) - 1.0).max() <= 2.3e-16


def test_gaussian_bin_mass_matches_ndtr_version(monkeypatch):
    # sigma from 1e-5 to 10 bin widths, sigma = 0 votes among them, means
    # beyond both ends of the range
    rng = np.random.default_rng(157)
    edges = np.linspace(0.0, 1.0, 65)
    draws = []
    for _ in range(8):
        n = 30_000
        mu = rng.uniform(-0.3, 1.3, size=n)
        sigma = np.where(rng.random(n) < 0.1, 0.0, 10.0 ** rng.uniform(-5, 1, size=n) / 64)
        draws.append((mu, sigma, rng.uniform(0.1, 3.0, size=n)))
    got = [_gaussian_bin_mass(edges, *draw) for draw in draws]
    # the kernel table would hand back the erfc kernels: rebuild them from
    # ndtr, and keep those out of later calls
    shapedist._class_kernel.cache_clear()
    monkeypatch.setattr(shapedist, "_normal_cdf", ndtr)
    try:
        differ = 0
        for mass, (mu, sigma, weight) in zip(got, draws):
            want = _gaussian_bin_mass(edges, mu, sigma, weight)
            assert np.abs(mass - want).max() <= 1e-15 * weight.sum()
            differ += int((mass != want).sum())
        assert differ > 0  # the two CDFs round apart, so ndtr kernels did vote
    finally:
        shapedist._class_kernel.cache_clear()


@settings(max_examples=60, deadline=None)
@given(
    bins=st.integers(2, 40),
    votes=st.lists(
        st.tuples(
            st.floats(-1e4, 1e4),  # mean, in range lengths from lo
            st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),  # sigma, in bin widths
            st.floats(0.0, 10.0),  # weight
        ),
        min_size=1,
        max_size=50,
    ),
)
def test_vote_mass_conserved_property(bins, votes):
    # far-out means and extreme sigmas: every vote lands whole, none negative
    lo, hi = -0.7, 2.3
    t, sigma, weight = (np.array(col) for col in zip(*votes))
    width = (hi - lo) / bins
    mass = _gaussian_bin_mass(np.linspace(lo, hi, bins + 1), lo + t * (hi - lo), sigma * width, weight)
    assert (mass >= 0).all()
    assert mass.sum() == pytest.approx(weight.sum(), rel=1e-12, abs=1e-300)


_votes = st.lists(
    st.tuples(
        # mean in range lengths from lo: in range, at the padded range's ends, far past them
        st.one_of(st.floats(-1.5, 2.5), st.sampled_from([-1.0, 2.0, -1e4, 1e4])),
        # sigma in bin widths: point masses, and classes clipped at +-MAX_CLASS
        st.one_of(st.just(0.0), st.floats(1e-6, 1e3), st.sampled_from([1e-305, 1e305])),
        st.floats(0.0, 10.0),  # weight
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(bins=st.integers(2, 256), other_bins=st.integers(2, 256), votes=_votes, other=_votes)
def test_gaussian_bin_mass_matches_per_call_oracle_property(bins, other_bins, votes, other):
    # bitwise the voting that built its kernels per call, whichever calls
    # filled the kernel table first
    lo, hi = -0.7, 2.3

    def vote(n_bins, draws):
        t, sigma, weight = (np.array(col) for col in zip(*draws))
        edges = np.linspace(lo, hi, n_bins + 1)
        mu, sigma = lo + t * (hi - lo), sigma * (hi - lo) / n_bins
        mass = _gaussian_bin_mass(edges, mu, sigma, weight)
        with np.errstate(over="ignore"):
            want = gaussian_bin_mass_per_call(edges, mu, sigma, weight)
        assert mass.tobytes() == want.tobytes()
        return mass.tobytes()

    shapedist._class_kernel.cache_clear()
    first = vote(bins, votes), vote(other_bins, other)
    shapedist._class_kernel.cache_clear()
    assert vote(other_bins, other) == first[1]
    assert vote(bins, votes) == first[0]
    assert vote(bins, votes) == first[0]  # from a warm table


_rep_coords = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([-1.0, 0.0, 1.0]))


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(KINDS),
    n=st.integers(4, 25),
    budget=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    block=st.sampled_from(BLOCKS),
)
def test_blocked_votes_match_one_shot_property(data, kind, n, budget, seed, block):
    positions = np.array(data.draw(st.lists(st.tuples(*[_rep_coords] * 3), min_size=n, max_size=n)))
    scatters = np.array(
        data.draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=n, max_size=n))
    )
    arity = ARITY[kind]
    if math.comb(n, arity) <= budget:
        idx = _all_combinations(n, arity)
    else:
        idx = _sample_tuples(n, arity, budget, np.random.default_rng(seed))
    mu, _ = moment_votes_one_shot(kind, positions, scatters, idx)
    edges = np.linspace(0.0, max(0.8 * float(mu.max()), 1e-9), 17)
    with mock.patch.object(shapedist, "VOTE_BLOCK", block):
        assert_votes_match_one_shot(kind, positions, scatters, idx, edges)


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("kind", KINDS)
def test_blocked_exact_sd_matches_one_shot(monkeypatch, kind, block):
    monkeypatch.setattr(shapedist, "VOTE_BLOCK", block)
    rng = np.random.default_rng(137)
    pts = rng.uniform(0, 1, size=(30, 3))
    pts[:3] = [[0.0, 0, 0], [0.0, 0, 0], [1.0, 0, 0]]  # coincident and collinear tuples
    for cloud, cfg in (
        (PointCloud(pts[:9]), SDConfig(bins=16)),  # enumerated
        (PointCloud(pts), SDConfig(bins=16, sample_budget=101, seed=4)),  # sampled
        (PointCloud(pts), SDConfig(bins=8, lo=0.2, hi=0.4, sample_budget=101)),  # clamped
    ):
        got = exact_sd(cloud, kind, cfg).histogram
        ref = exact_sd_one_shot(cloud, kind, cfg)
        assert (got.lo, got.hi) == (ref.lo, ref.hi)
        assert got.mass.tobytes() == ref.mass.tobytes()


@pytest.mark.parametrize("block", BLOCKS)
def test_hsd_does_not_depend_on_block(monkeypatch, block):
    cloud = make_object("lshape", 200, np.random.default_rng(139))
    root = build_octree(cloud)
    cfg = SDConfig(sample_budget=150, seed=2)
    default = [hsd(root, kind, 2, cfg).histogram.mass.tobytes() for kind in KINDS]
    monkeypatch.setattr(shapedist, "VOTE_BLOCK", block)
    assert [hsd(root, kind, 2, cfg).histogram.mass.tobytes() for kind in KINDS] == default


def test_hsd_default_budget_peak_memory():
    # the R3 slot gathers and gradients take ~505 B per tuple (tracemalloc
    # over one 8192-tuple block of the (3, B) row kernel), so 200k tuples at
    # once would peak near 100 MB; one block at a time peaks at ~18 MB
    cloud = make_object("cylinder", 300, np.random.default_rng(1))
    root = build_octree(cloud)
    hsd(root, "D2", 3, SDConfig())  # warm-up: once-per-process work stays outside the trace
    tracemalloc.start()
    try:
        hsd(root, "R3", 3, SDConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40_000_000


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
    root = build_octree(cloud, OctreeConfig(max_depth=4))
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


def min_seconds(fn, repeats=3):
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_hsd_flat_cloud_votes_point_masses_without_slow_path():
    # every T3 rep tuple of a flat cloud is coplanar: it votes a point mass
    # at volume 0 and costs what a tuple of the same cloud in 3-D costs
    cloud = make_object("lshape", 300, np.random.default_rng(1))
    flat = cloud.points.copy()
    flat[:, 2] = 0.0
    general, planar = build_octree(cloud), build_octree(PointCloud(flat))
    assert hsd(planar, "T3", 3, SDConfig()).histogram.mass[0] == 1.0
    seconds = [min_seconds(lambda: hsd(root, "T3", 3, SDConfig())) for root in (general, planar)]
    assert seconds[1] <= 2.0 * seconds[0], seconds


@st.composite
def small_clouds(draw):
    """4-60 points at one of three scales; the last `dups` rows repeat
    earlier ones, so dups = n - 1 makes an all-duplicate cloud."""
    n = draw(st.integers(4, 60))
    dups = draw(st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = rng.normal(size=(n, 3)) * draw(st.sampled_from([1e-3, 1.0, 1e3]))
    pts[n - dups :] = pts[rng.integers(0, n - dups, dups)]
    return PointCloud(pts)


@settings(max_examples=150, deadline=None)
@given(cloud=small_clouds(), level=st.integers(1, 4))
def test_feature_histograms_conserve_mass_property(cloud, level):
    cfg = SDConfig(bins=16, sample_budget=2_000)
    root = build_octree(cloud, OctreeConfig(max_depth=level, leaf_capacity=4))
    n_reps = sum(len(node.reps) for node in nodes_at_level(root, level))
    hists = [exact_sd(cloud, kind, cfg).histogram for kind in KINDS]
    hists += [hsd(root, kind, level, cfg).histogram for kind in KINDS if n_reps >= ARITY[kind]]
    hists += shape_features(cloud, feature_ranges_for_group([cloud]), cfg).values()
    for h in hists:
        assert abs(h.mass.sum() - 1.0) <= 1e-12


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


def test_write_features_csv_printed_masses_sum_to_one(tmp_path):
    # masses of 4 x 0.2222222224 and 0.1111111104 print to 9 digits 2e-9 short of 1;
    # the largest bin takes up the difference, and a histogram whose printed
    # masses already sum to 1 is printed digit for digit
    off = np.array([0.2222222224] * 4 + [1.0 - 4 * 0.2222222224])
    exact = np.array([0.125, 0.375, 0.5])
    feats = [SDFeature(k, Histogram1D(0.0, 1.0, m)) for k, m in (("D2", off), ("A3", exact))]
    write_features_csv(feats, tmp_path / "f.csv")
    rows = [line.split(",") for line in (tmp_path / "f.csv").read_text().splitlines()[1:]]
    printed = {k: np.array([float(r[4]) for r in rows if r[0] == k]) for k in ("D2", "A3")}
    assert abs(printed["D2"].sum() - 1.0) <= 1e-9
    assert abs(off.sum() - 1.0) <= 1e-15 and abs(sum(float(f"{m:.9g}") for m in off) - 1.0) > 1e-9
    assert [r[4] for r in rows if r[0] == "A3"] == ["0.125", "0.375", "0.5"]
