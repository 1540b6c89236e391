import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lidarshape.core import Histogram1D, ParseError, PointCloud, emd_1d, save_cloud
from lidarshape.evaluate import (
    KINDS,
    MODES,
    STRATEGIES,
    DistanceMatrix,
    LabeledDataset,
    block_order,
    dataset_features,
    distance_matrix,
    group_stats,
    kind_distances,
    load_manifest,
    object_4features,
    write_matrix_csv,
    write_matrix_pgm,
    write_stats_csv,
)
from lidarshape.octree import OctreeConfig
from lidarshape.shapedist import SDConfig, SDFeature, sd_ranges
from lidarshape.synth import make_dataset, make_object

from _oracles import brute_force_histogram, distance_matrix_per_pair, histogram_l1


def tiny_dataset(rng, per_class=3, n=120):
    objs = []
    for kind in ("sphere", "box"):
        for _ in range(per_class):
            objs.append((make_object(kind, n, rng), kind))
    return LabeledDataset(tuple(objs))


def exact_matrix(ds, cfg, strategy="average"):
    kinds = kind_distances(dataset_features(ds, "exact", cfg))
    return distance_matrix(ds, kinds, strategy)


# ---------------------------------------------------------------------------
# object_4features
# ---------------------------------------------------------------------------


def test_identical_objects_identical_features():
    rng = np.random.default_rng(3)
    cloud = make_object("box", 100, rng)
    ranges = sd_ranges(cloud.bbox_diagonal())
    cfg = SDConfig(sample_budget=2_000, seed=4)
    a = object_4features(cloud, "exact", cfg, ranges)
    b = object_4features(PointCloud(cloud.points.copy()), "exact", cfg, ranges)
    for kind in KINDS:
        assert np.array_equal(a[kind].histogram.mass, b[kind].histogram.mass)


def test_exact_mode_matches_enumeration_under_budget():
    rng = np.random.default_rng(5)
    cloud = make_object("sphere", 16, rng)
    ranges = sd_ranges(cloud.bbox_diagonal())
    feats = object_4features(cloud, "exact", SDConfig(bins=16), ranges)
    for kind in KINDS:
        lo, hi = ranges[kind]
        oracle = brute_force_histogram(cloud.points, kind, lo, hi, 16)
        assert np.allclose(feats[kind].histogram.mass, oracle, atol=1e-12)


def test_hsd_mode_close_to_exact():
    rng = np.random.default_rng(7)
    cloud = make_object("cylinder", 300, rng)
    ranges = sd_ranges(cloud.bbox_diagonal())
    cfg = SDConfig(seed=2)
    ex = object_4features(cloud, "exact", cfg, ranges)
    hs = object_4features(cloud, "hsd", cfg, ranges, OctreeConfig())
    for kind in KINDS:
        assert histogram_l1(ex[kind].histogram, hs[kind].histogram) <= 0.15


@settings(max_examples=60, deadline=None)
@given(
    points=arrays(
        np.float64,
        st.tuples(st.integers(4, 60), st.just(3)),
        elements=st.integers(-1000, 1000).map(lambda v: v / 8),
    ),
    k=st.integers(-100, 100),
    mode=st.sampled_from(MODES),
)
def test_features_of_a_cloud_scaled_by_a_power_of_two_are_bitwise_equal(points, k, mode):
    # inside the diameter window, scaling changes no bit of any histogram,
    # nor whether a cloud has too few representatives for HSD
    cfg = SDConfig(sample_budget=2_000, seed=1)
    outcomes = []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for cloud in (PointCloud(points), PointCloud(points * 2.0**k)):
            try:
                feats = object_4features(cloud, mode, cfg, sd_ranges(cloud.bbox_diagonal()))
            except ValueError as exc:
                outcomes.append(str(exc))
            else:
                outcomes.append([feats[kind].histogram.mass.tobytes() for kind in KINDS])
    assert outcomes[1] == outcomes[0]


def test_too_few_points_rejected():
    cloud = PointCloud(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        object_4features(cloud, "exact", SDConfig(), sd_ranges(1.0))


# ---------------------------------------------------------------------------
# kind_distances / strategies
# ---------------------------------------------------------------------------


def test_identical_features_zero_under_all_strategies():
    rng = np.random.default_rng(9)
    cloud = make_object("box", 80, rng)
    ranges = sd_ranges(cloud.bbox_diagonal())
    f = object_4features(cloud, "exact", SDConfig(sample_budget=2_000), ranges)
    ds = LabeledDataset(((cloud, "box"), (cloud, "box")))
    kinds = kind_distances([f, f])
    assert np.all(kinds == 0.0)
    for strategy in STRATEGIES:
        assert np.all(distance_matrix(ds, kinds, strategy).values == 0.0)


def test_strategy_ordering():
    rng = np.random.default_rng(11)
    a_cloud = make_object("box", 80, rng)
    b_cloud = make_object("sphere", 80, rng)
    d = max(a_cloud.bbox_diagonal(), b_cloud.bbox_diagonal())
    ranges = sd_ranges(d)
    cfg = SDConfig(sample_budget=2_000)
    a = object_4features(a_cloud, "exact", cfg, ranges)
    b = object_4features(b_cloud, "exact", cfg, ranges)
    ds = LabeledDataset(((a_cloud, "box"), (b_cloud, "sphere")))
    kinds = kind_distances([a, b])
    small, avg, big = (
        distance_matrix(ds, kinds, s).values[0, 1] for s in ("smallest", "average", "biggest")
    )
    assert small <= avg <= big
    assert small < big


def test_average_strategy_is_mean_of_four_emds():
    rng = np.random.default_rng(13)

    a_cloud = make_object("box", 60, rng)
    b_cloud = make_object("cylinder", 60, rng)
    ranges = sd_ranges(max(a_cloud.bbox_diagonal(), b_cloud.bbox_diagonal()))
    cfg = SDConfig(sample_budget=1_000)
    a = object_4features(a_cloud, "exact", cfg, ranges)
    b = object_4features(b_cloud, "exact", cfg, ranges)
    emds = [emd_1d(a[k].histogram, b[k].histogram) for k in KINDS]
    kinds = kind_distances([a, b])
    assert kinds[0, 1].tolist() == emds and kinds[1, 0].tolist() == emds
    ds = LabeledDataset(((a_cloud, "box"), (b_cloud, "cylinder")))
    expected = sum(emds) / 4
    assert distance_matrix(ds, kinds, "average").values[0, 1] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("mode", ["exact", "hsd"])
def test_distance_matrix_matches_per_pair_loop_bitwise(mode):
    # interleaved categories: the blocking puts a later object before an
    # earlier one, so the loop scores some pairs in the other argument order
    rng = np.random.default_rng(59)
    kinds_of = ("box", "sphere", "box", "pole", "sphere", "box")
    ds = LabeledDataset(tuple((make_object(k, 60, rng), k) for k in kinds_of))
    feats = dataset_features(ds, mode, SDConfig(sample_budget=1_000, seed=4))
    kinds = kind_distances(feats)
    order = block_order(ds)
    assert order != sorted(order)
    for strategy in STRATEGIES:
        m = distance_matrix(ds, kinds, strategy)
        oracle = distance_matrix_per_pair(feats, order, strategy)
        assert m.values.tobytes() == oracle.tobytes(), strategy
        assert m.row_objects == tuple(order)


def test_distance_matrix_rejects_unknown_strategy_and_one_object():
    rng = np.random.default_rng(61)
    cloud = make_object("box", 40, rng)
    ds = LabeledDataset(tuple([(cloud, "box")] * 2))
    feats = dataset_features(ds, "exact", SDConfig(sample_budget=500))
    with pytest.raises(ValueError, match="unknown strategy"):
        distance_matrix(ds, kind_distances(feats), "median")
    one = LabeledDataset(((cloud, "box"),))
    with pytest.raises(ValueError, match="at least 2 objects"):
        distance_matrix(one, kind_distances(feats[:1]))


@st.composite
def feature_sets(draw):
    """2-5 objects, each with four random normalized 8-bin histograms."""
    n = draw(st.integers(2, 5))
    mass = st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8).filter(lambda m: sum(m) > 0.01)
    return [
        {k: SDFeature(k, Histogram1D(0.0, 2.0, np.array(draw(mass))).normalized()) for k in KINDS}
        for _ in range(n)
    ]


@settings(max_examples=60, deadline=None)
@given(feature_sets())
def test_kind_distances_are_a_metric_per_kind(feats):
    kinds = kind_distances(feats)
    n = len(feats)
    assert kinds.shape == (n, n, len(KINDS))
    for k in range(len(KINDS)):
        d = kinds[..., k]
        assert np.all(d >= 0.0)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        # d[i, k] <= d[i, j] + d[j, k] for every triple
        assert np.all(d[:, None, :] <= d[:, :, None] + d[None, :, :] + 1e-12)


# ---------------------------------------------------------------------------
# distance_matrix / group_stats
# ---------------------------------------------------------------------------


def test_duplicated_object_gives_zero_matrix():
    rng = np.random.default_rng(17)
    cloud = make_object("box", 80, rng)
    ds = LabeledDataset(((cloud, "box"), (PointCloud(cloud.points.copy()), "box")))
    m = exact_matrix(ds, SDConfig(sample_budget=1_000))
    assert np.allclose(m.values, 0.0, atol=1e-12)


def test_matrix_symmetric_zero_diagonal_blocked():
    rng = np.random.default_rng(19)
    ds = tiny_dataset(rng)
    m = exact_matrix(ds, SDConfig(sample_budget=1_000, seed=3))
    assert np.abs(m.values - m.values.T).max() == 0.0
    assert np.all(np.diag(m.values) == 0)
    assert list(m.row_categories) == ["sphere"] * 3 + ["box"] * 3


def test_block_diagonal_dominance_three_classes():
    objs = make_dataset({"sphere": 4, "box": 4, "cylinder": 4}, n_points=150, seed=23)
    ds = LabeledDataset(tuple((o, o.label) for o in objs))
    m = exact_matrix(ds, SDConfig(sample_budget=2_000, seed=1))
    stats = group_stats(m, ds)
    for cs in stats:
        assert cs.within_mean < cs.across_mean
        assert cs.ratio < 1


def test_group_stats_identical_within_classes():
    rng = np.random.default_rng(29)
    a = make_object("sphere", 80, rng)
    b = make_object("pole", 80, rng)
    ds = LabeledDataset(
        (
            (a, "sphere"),
            (PointCloud(a.points.copy()), "sphere"),
            (b, "pole"),
            (PointCloud(b.points.copy()), "pole"),
        )
    )
    m = exact_matrix(ds, SDConfig(sample_budget=1_000))
    stats = group_stats(m, ds)
    for cs in stats:
        assert cs.within_mean == pytest.approx(0.0, abs=1e-12)
        assert cs.across_mean > 0
        assert cs.ratio == pytest.approx(0.0, abs=1e-9)


def by_category(stats):
    return {cs.category: cs for cs in stats}


def test_single_category_across_undefined():
    rng = np.random.default_rng(31)
    ds = LabeledDataset(tuple((make_object("box", 60, rng), "box") for _ in range(3)))
    m = exact_matrix(ds, SDConfig(sample_budget=500))
    cs = by_category(group_stats(m, ds))["box"]
    assert cs.across_mean is None
    assert cs.ratio is None
    assert cs.within_mean is not None


def test_singleton_category_within_undefined():
    rng = np.random.default_rng(37)
    ds = LabeledDataset(
        (
            (make_object("box", 60, rng), "box"),
            (make_object("sphere", 60, rng), "sphere"),
        )
    )
    m = exact_matrix(ds, SDConfig(sample_budget=500))
    box = by_category(group_stats(m, ds))["box"]
    assert box.within_mean is None
    assert box.across_mean is not None


def test_group_stats_match_brute_force_loops():
    rng = np.random.default_rng(41)
    ds = tiny_dataset(rng, per_class=4, n=80)
    m = exact_matrix(ds, SDConfig(sample_budget=1_000, seed=9))
    stats = by_category(group_stats(m, ds))

    cats = list(m.row_categories)
    for cat in ds.categories:
        within, across = [], []
        for i in range(len(cats)):
            for j in range(len(cats)):
                if i < j and cats[i] == cat and cats[j] == cat:
                    within.append(m.values[i, j])
                if cats[i] == cat and cats[j] != cat:
                    across.append(m.values[i, j])
        cs = stats[cat]
        # same values in the same order: the same bits
        assert cs.within_mean == float(np.mean(within))
        assert cs.within_var == float(np.var(within))
        assert cs.across_mean == float(np.mean(across))
        assert cs.across_var == float(np.var(across))


def test_group_stats_invariant_to_within_category_permutation():
    rng = np.random.default_rng(43)
    objs = [(make_object("box", 70, rng), "box") for _ in range(3)]
    objs += [(make_object("sphere", 70, rng), "sphere") for _ in range(3)]
    ds1 = LabeledDataset(tuple(objs))
    ds2 = LabeledDataset(tuple([objs[1], objs[0], objs[2]] + objs[3:]))
    cfg = SDConfig(sample_budget=1_000, seed=2)
    s1 = by_category(group_stats(exact_matrix(ds1, cfg), ds1))
    s2 = by_category(group_stats(exact_matrix(ds2, cfg), ds2))
    for cat in ("box", "sphere"):
        assert s1[cat].within_mean == pytest.approx(s2[cat].within_mean, abs=1e-12)


# ---------------------------------------------------------------------------
# manifest + exports
# ---------------------------------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    rng = np.random.default_rng(47)
    lines = []
    for i, kind in enumerate(("sphere", "box")):
        cloud = make_object(kind, 50, rng)
        save_cloud(cloud, tmp_path / f"obj{i}.xyz")
        lines.append(f"obj{i}.xyz,{kind}")
    (tmp_path / "manifest.csv").write_text("file_path,category\n" + "\n".join(lines) + "\n")
    ds = load_manifest(tmp_path / "manifest.csv")
    assert len(ds) == 2
    assert ds.categories == ("sphere", "box")
    assert len(ds.objects[0][0]) == 50


def test_manifest_missing_file(tmp_path):
    (tmp_path / "m.csv").write_text("ghost.xyz,thing\n")
    with pytest.raises(FileNotFoundError):
        load_manifest(tmp_path / "m.csv")


def test_manifest_bad_line_is_a_parse_error_at_its_line(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("file_path,category\n# note\none_field\n")
    with pytest.raises(ParseError, match="expected 'file_path,category'") as info:
        load_manifest(path)
    assert (info.value.path, info.value.line_no) == (str(path), 3)


def test_matrix_exports(tmp_path):
    rng = np.random.default_rng(53)
    ds = tiny_dataset(rng, per_class=2, n=60)
    m = exact_matrix(ds, SDConfig(sample_budget=500))
    write_matrix_csv(m, tmp_path / "m.csv")
    lines = (tmp_path / "m.csv").read_text().splitlines()
    assert len(lines) == 1 + 4

    write_matrix_pgm(m, tmp_path / "m.pgm")
    body = (tmp_path / "m.pgm").read_text().splitlines()
    assert body[0] == "P2"
    assert body[1] == "4 4"
    pixels = [int(v) for v in " ".join(body[3:]).split()]
    assert len(pixels) == 16
    # diagonal is the minimum distance -> white
    assert pixels[0] == 255

    from lidarshape.evaluate import group_stats as gs

    write_stats_csv([(gs(m, ds), "average", "exact")], tmp_path / "s.csv")
    lines = (tmp_path / "s.csv").read_text().splitlines()
    assert lines[0].startswith("category,within_mean")
    assert len(lines) == 1 + len(ds.categories)
