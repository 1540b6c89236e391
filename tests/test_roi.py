import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lidarshape.core import PointCloud
from lidarshape.roi import (
    HEIGHT_RANGE_MAX,
    MAX_GRID_CELLS,
    STAGES,
    TileFeatures,
    basic_filter,
    build_grid,
    refine_roi,
    tile_features,
    train_class_model,
    write_roi_csv,
    write_roi_pgm,
)
from lidarshape.synth import make_scene

from _oracles import build_grid_cells_dict, refine_roi_per_tile, tile_features_per_tile


# ---------------------------------------------------------------------------
# build_grid
# ---------------------------------------------------------------------------


def test_single_tile_scene():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0, 0.99, size=(50, 3))
    grid = build_grid(PointCloud(pts), tile_size=1.0)
    assert grid.cells.tolist() == [[0, 0]]
    assert grid.width == 1 and grid.height == 1


def test_boundary_point_goes_to_higher_tile():
    # origin anchors at the min corner (0, 0); x = 1.0 sits on the boundary
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.5, 0.0], [1.5, 0.5, 0.0]])
    grid = build_grid(PointCloud(pts), tile_size=1.0)
    assert grid.cells.tolist() == [[0, 0], [1, 0]]
    assert grid.counts[1] == 2  # x=1.0 lands in the higher tile


def test_point_conservation_random_scene():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-7, 13, size=(5_000, 3))
    grid = build_grid(PointCloud(pts), tile_size=1.7)
    assert grid.counts.sum() == 5_000
    assert np.array_equal(np.sort(grid.order), np.arange(5_000))
    # every point is grouped under the tile whose floor cell holds it
    tile_of = np.floor((pts[grid.order, :2] - grid.origin) / grid.tile_size)
    assert np.array_equal(tile_of, np.repeat(grid.cells, grid.counts, axis=0))


@pytest.mark.parametrize("tile_size", [0.0, -1.0, float("nan")])
def test_tile_size_must_be_positive(tile_size):
    with pytest.raises(ValueError, match="tile_size must be positive"):
        build_grid(PointCloud(np.zeros((2, 3))), tile_size=tile_size)


@pytest.mark.parametrize("far", [1e4, 1e20, 1e307])
def test_grid_larger_than_cap_is_refused(far):
    pts = np.array([[0.0, 0.0, 0.0], [far, far, 1.0]])
    with pytest.raises(ValueError, match=f"more than {MAX_GRID_CELLS}"):
        build_grid(PointCloud(pts), tile_size=1.0)


def test_grid_at_cap_is_built():
    # 5000 x 10000 tiles is exactly the cap; only the two corner tiles are occupied
    side = MAX_GRID_CELLS // 10_000
    pts = np.array([[0.0, 0.0, 0.0], [side - 0.5, 9_999.5, 1.0]])
    grid = build_grid(PointCloud(pts), tile_size=1.0)
    assert (grid.width, grid.height) == (side, 10_000)
    assert grid.cells.tolist() == [[0, 0], [side - 1, 9_999]]


# ---------------------------------------------------------------------------
# tile_features
# ---------------------------------------------------------------------------


def test_vertical_pole_feature():
    rng = np.random.default_rng(7)
    n = 100
    pts = np.column_stack(
        [
            rng.uniform(0.4, 0.6, n),
            rng.uniform(0.4, 0.6, n),
            np.linspace(0.0, 5.0, n),
        ]
    )
    grid = build_grid(PointCloud(pts), tile_size=1.0)
    feats = tile_features(grid, PointCloud(pts))
    assert feats.point_count.tolist() == [n]
    assert feats.max_height[0] == pytest.approx(5.0, abs=0.3)
    assert feats.vectors().shape == (1, 4 + 16)
    occupied_bins = np.nonzero(feats.height_mass[0])[0]
    assert occupied_bins.max() >= 7  # mass spread up to ~5 m (bin width 0.625)


def stack(tables):
    """Tables as one table, their rows in order."""
    return TileFeatures(
        *(np.concatenate([getattr(t, f.name) for t in tables]) for f in fields(TileFeatures))
    )


def assert_refine_matches_oracle(candidates, feats, per_tile):
    model = train_class_model(feats.vectors()[candidates])
    rules = [{"k_nearest": k} for k in (0, 1, 2, len(candidates) + 1)]
    rules += [{"threshold": tau} for tau in (0.0, 0.5, 1.0, 2.0, np.inf)]
    for rule in rules:
        got = refine_roi(candidates, feats, model, **rule)
        assert got.tolist() == refine_roi_per_tile(candidates.tolist(), per_tile, model, **rule)
        # without a model, refine_roi trains the same one on the candidates
        assert refine_roi(candidates, feats, **rule).tolist() == got.tolist()


def assert_table_matches_oracles(scene, tile_size, min_points=20, height_range=(0.3, 10.0)):
    grid = build_grid(scene, tile_size)
    cells = build_grid_cells_dict(scene, tile_size)
    assert grid.cells.tolist() == [list(tile) for tile in cells]
    assert grid.order.tobytes() == np.concatenate(list(cells.values())).tobytes()
    assert grid.counts.tolist() == [idx.shape[0] for idx in cells.values()]

    feats = tile_features(grid, scene)
    want = tile_features_per_tile(grid, scene)
    count, max_h, min_h, mass, density = (np.array(col) for col in zip(*want))
    assert feats.point_count.tolist() == count.tolist()
    assert feats.max_height.tobytes() == max_h.tobytes()
    assert feats.min_height.tobytes() == min_h.tobytes()
    assert feats.density.tobytes() == density.tobytes()
    assert feats.height_mass.tobytes() == mass.tobytes()

    lo, hi = height_range
    rows = basic_filter(feats, min_points, height_range)
    assert rows.tolist() == [
        i for i, (n, h, *_) in enumerate(want) if n >= min_points and lo <= h <= hi
    ]
    if rows.size:
        assert_refine_matches_oracle(rows, feats, want)
    # every tile twice: equal distances must still break ties by row
    assert_refine_matches_oracle(np.arange(2 * len(want)), stack([feats, feats]), want + want)


def test_tile_features_match_per_tile_loop_on_edge_cases():
    rng = np.random.default_rng(47)
    pts = np.vstack(
        [
            [[-3.2, -7.9, 0.4]],  # a lone point
            [[5.1, 5.1, 2.0]] * 6,  # all-equal z
            np.column_stack(  # tall tile, most heights above the histogram range
                [rng.uniform(1.0, 1.4, 40), rng.uniform(-2.0, -1.6, 40), rng.uniform(0, 35, 40)]
            ),
            rng.uniform(-9, 9, size=(300, 3)),  # negative coordinates, mixed counts
        ]
    )
    scene = PointCloud(pts)
    for tile_size in (1.0, 0.37, 2.5):
        assert_table_matches_oracles(scene, tile_size)


_coords = st.one_of(
    st.floats(-30.0, 30.0), st.sampled_from([-2.0, -0.5, 0.0, 0.25, 1.0, 3.0])
)
_heights = st.one_of(
    st.floats(-5.0, 3.0 * HEIGHT_RANGE_MAX), st.sampled_from([0.0, 1.5, 12.0])
)


_xy_z = st.integers(1, 150).flatmap(
    lambda n: st.tuples(
        arrays(np.float64, (n, 2), elements=_coords), arrays(np.float64, n, elements=_heights)
    )
)


@settings(max_examples=150, deadline=None)
@given(
    xy_z=_xy_z,
    tile_size=st.sampled_from([1.0, 0.37, 2.5, 7.0]),
    min_points=st.sampled_from([0, 1, 3, 20]),
    height_range=st.sampled_from([(0.3, 10.0), (0.0, 0.0), (-np.inf, np.inf), (1.0, 4.0)]),
)
# a tile of signed zeros: its heights are 0.0, never -0.0
@example(
    xy_z=(np.zeros((2, 2)), np.array([-0.0, 0.0])),
    tile_size=1.0,
    min_points=0,
    height_range=(0.0, 0.0),
)
def test_tile_features_match_per_tile_loop(xy_z, tile_size, min_points, height_range):
    xy, z = xy_z
    scene = PointCloud(np.column_stack([xy, z]))
    assert_table_matches_oracles(scene, tile_size, min_points, height_range)


def test_density_times_area_is_count():
    rng = np.random.default_rng(9)
    pts = rng.uniform(0, 8, size=(2_000, 3))
    grid = build_grid(PointCloud(pts), tile_size=2.0)
    feats = tile_features(grid, PointCloud(pts))
    assert feats.density * 4.0 == pytest.approx(feats.point_count)


# ---------------------------------------------------------------------------
# basic_filter
# ---------------------------------------------------------------------------


def test_basic_filter_permissive_keeps_all_occupied():
    rng = np.random.default_rng(11)
    pts = rng.uniform(0, 5, size=(500, 3))
    grid = build_grid(PointCloud(pts))
    feats = tile_features(grid, PointCloud(pts))
    kept = basic_filter(feats, min_points=0, height_range=(-np.inf, np.inf))
    assert kept.tolist() == list(range(len(grid.cells)))


def test_basic_filter_rejects_flat_ground():
    rng = np.random.default_rng(13)
    pts = np.column_stack(
        [rng.uniform(0, 1, 200), rng.uniform(0, 1, 200), rng.normal(0, 0.01, 200)]
    )
    grid = build_grid(PointCloud(pts))
    feats = tile_features(grid, PointCloud(pts))
    assert basic_filter(feats, min_points=20, height_range=(0.3, 10.0)).size == 0


def test_planted_scene_full_recall():
    scene = make_scene(seed=21)
    grid = build_grid(scene.scene, tile_size=scene.tile_size)
    feats = tile_features(grid, scene.scene)
    kept = {tuple(tile) for tile in grid.cells[basic_filter(feats)].tolist()}
    for tile in scene.object_tiles:
        assert tile in kept


# ---------------------------------------------------------------------------
# class model / refine_roi
# ---------------------------------------------------------------------------


def tile_from_vector(count, max_h, rng):
    pts = np.column_stack(
        [rng.uniform(0, 1, count), rng.uniform(0, 1, count), rng.uniform(0, max_h, count)]
    )
    grid = build_grid(PointCloud(pts), tile_size=1.0)
    return tile_features(grid, PointCloud(pts))


def test_single_training_tile_center_is_itself():
    rng = np.random.default_rng(17)
    tile = tile_from_vector(40, 1.5, rng).vectors()
    model = train_class_model(tile)
    assert np.allclose(model.center, tile[0])
    assert model.distances(tile)[0] == 0.0


def test_duplicated_training_set_same_center():
    rng = np.random.default_rng(19)
    vectors = stack([tile_from_vector(40, 1.5, rng) for _ in range(4)]).vectors()
    m1 = train_class_model(vectors)
    m2 = train_class_model(np.vstack([vectors] * 3))
    assert np.allclose(m1.center, m2.center, atol=1e-12)


def test_center_matches_brute_force_mean():
    rng = np.random.default_rng(23)
    tiles = [tile_from_vector(int(c), h, rng) for c, h in [(30, 1.0), (50, 2.0), (40, 1.4)]]
    model = train_class_model(stack(tiles).vectors())
    brute = sum(t.vectors()[0] for t in tiles) / 3
    assert np.abs(model.center - brute).max() < 1e-12


def test_refine_k_nearest_exact_count():
    rng = np.random.default_rng(29)
    feats = stack([tile_from_vector(30 + i, 1.0 + 0.1 * i, rng) for i in range(6)])
    model = train_class_model(feats.vectors())
    kept = refine_roi(np.arange(6), feats, model, k_nearest=3)
    assert len(kept) == 3
    assert refine_roi(np.arange(6), feats, model, k_nearest=100).tolist() == list(range(6))


def test_refine_threshold_zero_keeps_only_center():
    rng = np.random.default_rng(31)
    a = tile_from_vector(30, 1.0, rng)
    b = tile_from_vector(60, 3.0, rng)
    model = train_class_model(a.vectors())
    assert refine_roi(np.array([0, 1]), stack([a, b]), model, threshold=0.0).tolist() == [0]


def test_refine_separates_planted_classes():
    """Model trained on short wide objects keeps them and rejects most tall
    thin ones at a threshold of 2.0."""
    rng = np.random.default_rng(37)
    class_a = [tile_from_vector(int(rng.integers(35, 45)), rng.uniform(1.0, 1.4), rng) for _ in range(30)]
    class_b = [tile_from_vector(int(rng.integers(100, 140)), rng.uniform(4.5, 6.0), rng) for _ in range(30)]
    model = train_class_model(stack(class_a).vectors())

    kept = refine_roi(np.arange(60), stack(class_a + class_b), model, threshold=2.0)
    kept_a = np.count_nonzero(kept < 30)
    kept_b = np.count_nonzero(kept >= 30)
    assert kept_a >= 0.95 * 30
    assert kept_b <= 0.20 * 30


def test_refine_output_subset_of_candidates():
    rng = np.random.default_rng(41)
    feats = stack([tile_from_vector(30, 1.0, rng) for _ in range(5)])
    model = train_class_model(feats.vectors())
    candidates = np.arange(3)
    kept = refine_roi(candidates, feats, model, threshold=2.0)
    assert set(kept.tolist()) <= set(candidates.tolist())


@pytest.mark.parametrize(
    "rule, message",
    [
        ({}, "exactly one of k_nearest and threshold"),
        ({"k_nearest": 2, "threshold": 1.0}, "exactly one of k_nearest and threshold"),
        ({"k_nearest": -1}, "k nearest must be non-negative, got -1"),
        ({"threshold": math.nan}, "distance threshold must be a number, got nan"),
    ],
)
@pytest.mark.parametrize("candidates", [np.arange(3), np.arange(0)], ids=["some", "none"])
def test_refine_rejects_a_bad_rule_with_or_without_candidates(rule, message, candidates):
    rng = np.random.default_rng(43)
    feats = stack([tile_from_vector(30, 1.0, rng) for _ in range(3)])
    with pytest.raises(ValueError, match=re.escape(message)):
        refine_roi(candidates, feats, **rule)


def test_refine_without_candidates_keeps_none():
    rng = np.random.default_rng(47)
    feats = stack([tile_from_vector(30, 1.0, rng) for _ in range(3)])
    for rule in ({"k_nearest": 2}, {"threshold": np.inf}):
        assert refine_roi(np.arange(0), feats, **rule).tolist() == []


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def test_roi_csv_and_pgm(tmp_path):
    scene = make_scene(seed=43, extent_tiles=6, n_objects=3)
    grid = build_grid(scene.scene, tile_size=1.0)
    feats = tile_features(grid, scene.scene)
    stage = np.zeros(len(grid.cells), dtype=np.int64)
    stage[basic_filter(feats)] = 1

    csv_path = tmp_path / "roi.csv"
    write_roi_csv(grid, feats, stage, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "tile_x,tile_y,center_x,center_y,point_count,max_height,kept_by_stage"
    assert len(lines) == 1 + len(grid.cells)
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == [STAGES[s] for s in stage]

    pgm_path = tmp_path / "roi.pgm"
    write_roi_pgm(grid, stage, pgm_path)
    body = pgm_path.read_text().splitlines()
    assert body[0] == "P2"
    assert body[1] == f"{grid.width} {grid.height}"
    pixels = " ".join(body[3:]).split()
    assert len(pixels) == grid.width * grid.height


def test_roi_csv_prints_no_negative_zero(tmp_path):
    # tiles whose heights are all zero, with z of either sign in either order
    signed_zeros = [[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0, -0.0]]
    pts = np.array([[tx + 0.5, 0.5, z] for tx, zs in enumerate(signed_zeros) for z in zs])
    scene = PointCloud(pts)
    grid = build_grid(scene, tile_size=1.0)
    feats = tile_features(grid, scene)
    path = tmp_path / "roi.csv"
    write_roi_csv(grid, feats, np.zeros(len(grid.cells), dtype=np.int64), path)
    values = [v for line in path.read_text().splitlines()[1:] for v in line.split(",")]
    assert len(values) == 7 * len(signed_zeros)
    assert "-0" not in values
    assert np.signbit(feats.max_height).sum() == np.signbit(feats.min_height).sum() == 0
