import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lidarshape import spinimage
from lidarshape.core import ParseError, PointCloud, Transform4DOF, apply_transform
from lidarshape.spinimage import (
    CODE_COUNT,
    Codebook,
    PATCH_11X11,
    SPIN_COLS,
    SPIN_ROWS,
    WHOLE_IMAGE,
    cluster_parts,
    encode_all,
    load_codebook,
    save_codebook,
    spin_image_at,
    spin_images,
    train_codebook,
    write_spin_pgm,
)

from _oracles import spin_image_per_point


def random_transform(rng):
    return Transform4DOF(
        tx=rng.uniform(-2, 2),
        ty=rng.uniform(-2, 2),
        tz=rng.uniform(-2, 2),
        theta=rng.uniform(-math.pi, math.pi),
    )


def random_images(rng, n, peaked=False):
    """(n, 31, 16) stack of unit-mass grids."""
    images = np.empty((n, SPIN_ROWS, SPIN_COLS))
    for g in images:
        g[:] = rng.uniform(0, 1, size=(SPIN_ROWS, SPIN_COLS))
        if peaked:
            g[rng.integers(0, SPIN_ROWS), rng.integers(0, SPIN_COLS)] += 20.0
        g /= g.sum()
    return images


# ---------------------------------------------------------------------------
# spin_image_at
# ---------------------------------------------------------------------------


def test_isolated_point_gives_empty_image():
    cloud = PointCloud(np.array([[0.0, 0, 0], [100.0, 0, 0]]))
    img = spin_image_at(cloud, 0, support_radius=1.0)
    assert img.shape == (SPIN_ROWS, SPIN_COLS)
    assert not img.any()


def test_spin_images_is_one_stack_with_zero_grids_for_isolated_points():
    cloud = PointCloud(np.array([[0.0, 0, 0], [0.1, 0, 0.2], [100.0, 0, 0]]))
    images = spin_images(cloud, support_radius=1.0)
    assert images.shape == (3, SPIN_ROWS, SPIN_COLS)
    assert images.dtype == np.float64
    assert images[:2].sum(axis=(1, 2)) == pytest.approx([1.0, 1.0])
    assert not images[2].any()


def test_neighbor_directly_above_lands_on_axis_column():
    h = 0.4
    cloud = PointCloud(np.array([[0.0, 0, 0], [0.0, 0, h]]))
    img = spin_image_at(cloud, 0, support_radius=1.0)
    assert img.sum() == pytest.approx(1.0)
    # alpha ~ 0 -> all mass in column 0; beta = h -> rows around (h+R)/rowh
    assert img[:, 0].sum() == pytest.approx(1.0)
    v = (h + 1.0) / (2.0 / SPIN_ROWS) - 0.5
    rows = np.nonzero(img[:, 0])[0]
    assert set(rows) <= {math.floor(v), math.floor(v) + 1}


def test_global_z_invariant_under_4dof():
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.uniform(-1, 1, size=(60, 3)))
    radius = 1.5
    base = spin_images(cloud, support_radius=radius)
    for _ in range(5):
        moved = apply_transform(cloud, random_transform(rng))
        for i in (0, 17, 59):
            img = spin_image_at(moved, i, support_radius=radius)
            assert np.abs(img - base[i]).max() < 1e-9


@settings(max_examples=40, deadline=None)
@given(
    arrays(np.float64, st.tuples(st.integers(2, 40), st.just(3)),
           elements=st.floats(-1.0, 1.0)),
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
    st.floats(-math.pi, math.pi),
)
def test_spin_images_invariant_under_4dof_property(points, tx, ty, tz, theta):
    # a radius of at least the cloud's diameter: no neighbor crosses the
    # cutoff, so a moved cloud votes the same pairs (the default radius,
    # half the axis-aligned bbox diagonal, changes under rotation)
    cloud = PointCloud(points)
    radius = 2.0 * math.sqrt(3.0) + 0.5
    moved = apply_transform(cloud, Transform4DOF(tx=tx, ty=ty, tz=tz, theta=theta))
    base = spin_images(cloud, support_radius=radius)
    assert np.abs(spin_images(moved, support_radius=radius) - base).max() <= 1e-12


def test_mass_conservation_with_bilinear_clamping():
    rng = np.random.default_rng(9)
    cloud = PointCloud(rng.uniform(-1, 1, size=(40, 3)))
    img = spin_image_at(cloud, 0, support_radius=3.0)
    assert img.sum() == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# blocked kernel against the per-point oracle
# ---------------------------------------------------------------------------


def assert_bitwise_oracle(cloud, support_radius=None):
    """spin_images and spin_image_at give the oracle's grids bit for bit."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # far points must not warn
        images = spin_images(cloud, support_radius=support_radius)
    assert images.shape == (len(cloud), SPIN_ROWS, SPIN_COLS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the oracle's norm may overflow
        expected = [spin_image_per_point(cloud, i, support_radius=support_radius)
                    for i in range(len(cloud))]
    for i, (img, want) in enumerate(zip(images, expected)):
        assert img.tobytes() == want.tobytes(), i
    for i in {0, len(cloud) // 2, len(cloud) - 1}:
        at = spin_image_at(cloud, i, support_radius=support_radius)
        assert at.tobytes() == expected[i].tobytes(), i


# on, inside and outside the unit sphere around the first point
AT_UNIT_RADIUS = [
    [0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, -1], [0.6, 0.8, 0],
    [0.5, 0.5, 0.5], [0, 0, 2],
]


@pytest.mark.parametrize(
    "points, radius",
    [
        ([[0, 0, 0], [0, 0, 0], [1, 0.5, 0.2], [1, 0.5, 0.2], [0.3, -0.2, 0.9]], None),
        ([[0, 0, 0], [0.1, 0, 0.05], [100, 0, 0]], 1.0),  # index 2 has no neighbor
        ([[1.0, 2.0, 3.0]], 0.5),
        ([[0, 0, 0], [0.3, 0.4, 0.5]], None),
        ([[0, 0, 0], [0.3, 0.4, 0.5]], 0.1),
        (AT_UNIT_RADIUS, 1.0),
        ([[0, 0, 0], [0.1, 0, 0], [0, 0, 0.1], [0, 0, -0.1], [0.06, 0.08, 0]], 0.1),
        # radius = |rel| as (dx^2 + dy^2) + dz^2 sums it, 1 ulp below the
        # other order, and the other way round: the pair is in, then out
        ([[0, 0, 0], [-0.6, 0.88, -0.27]], 1.0987720418721982),
        ([[0, 0, 0], [0.96, 0.37, 0.3]], 1.0716809226630843),
        ([[0, 0, 0], [0.5, 0, 0.2], [1e6, 0, 0], [0, 0, -1e150], [1e200, -1e200, 0],
          [1e308, 0, 0], [-1e308, 0, 1e308]], 1.0),
    ],
    ids=["duplicates", "isolated", "one-point", "two-points", "two-points-apart",
         "at-radius", "at-small-radius", "sum-order-in", "sum-order-out", "far"],
)
def test_spin_images_match_oracle_edge_cases(points, radius):
    assert_bitwise_oracle(PointCloud(np.array(points, dtype=np.float64)), radius)


@pytest.mark.parametrize("radius", [1e-3, None, 1e3])
def test_spin_images_match_oracle_across_radii(radius):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1, 1, size=(60, 3))
    pts[5] = pts[6]  # a duplicate
    assert_bitwise_oracle(PointCloud(pts), radius)


def test_spin_images_partial_last_block_matches_oracle():
    n = 700
    assert n % (spinimage.BLOCK_PAIRS // n) == 10  # 23 images per block, 10 in the last
    cloud = PointCloud(np.random.default_rng(12).normal(size=(n, 3)))
    images = spin_images(cloud)
    for i in (0, 22, 23, 689, 690, 699):
        assert images[i].tobytes() == spin_image_per_point(cloud, i).tobytes(), i


def test_one_image_per_block_matches_oracle(monkeypatch):
    # the block size spin_images uses for any cloud above BLOCK_PAIRS points
    monkeypatch.setattr(spinimage, "BLOCK_PAIRS", 16)
    rng = np.random.default_rng(13)
    assert_bitwise_oracle(PointCloud(rng.uniform(-1, 1, size=(40, 3))), 0.8)


def test_spin_image_at_above_block_pairs_matches_oracle():
    # a full spin_images run at this size takes tens of seconds; spin_image_at
    # runs the same kernel on a one-image block
    n = spinimage.BLOCK_PAIRS + 3
    pts = np.random.default_rng(14).uniform(-1, 1, size=(n, 3))
    pts[-1] = pts[0]
    cloud = PointCloud(pts)
    for i in (0, 1, n // 2, n - 1):
        at = spin_image_at(cloud, i, support_radius=0.3)
        want = spin_image_per_point(cloud, i, support_radius=0.3)
        assert at.tobytes() == want.tobytes(), i
    assert spin_image_at(cloud, -1).tobytes() == spin_image_at(cloud, n - 1).tobytes()


coords = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]),
    st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=25),
    st.one_of(st.none(), st.sampled_from([0.25, 0.5, 1.0]), st.floats(1e-3, 10.0)),
)
def test_spin_images_match_oracle_property(points, radius):
    cloud = PointCloud(np.array(points, dtype=np.float64))
    if radius is None and not spinimage.default_support_radius(cloud) > 0:
        radius = 1.0  # every point equal: the default radius is 0
    assert_bitwise_oracle(cloud, radius)


def test_spin_images_reject_bad_radius():
    cloud = PointCloud(np.array([[0.0, 0, 0], [1.0, 0, 0]]))
    with pytest.raises(ValueError, match="support_radius"):
        spin_images(cloud, support_radius=0.0)
    with pytest.raises(ValueError, match="support_radius"):
        spin_images(PointCloud(np.array([[1.0, 2.0, 3.0]])))  # default radius 0
    with pytest.raises(IndexError):
        spin_image_at(cloud, 2)


# ---------------------------------------------------------------------------
# train_codebook / encode
# ---------------------------------------------------------------------------


def test_codebook_requires_enough_images():
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError):
        train_codebook(random_images(rng, CODE_COUNT), WHOLE_IMAGE)


def test_codebook_basis_orthonormal():
    rng = np.random.default_rng(13)
    for kind in (WHOLE_IMAGE, PATCH_11X11):
        cb = train_codebook(random_images(rng, 40), kind)
        gram = cb.basis @ cb.basis.T
        assert np.abs(gram - np.eye(CODE_COUNT)).max() < 1e-6


def test_identical_images_degenerate_training():
    rng = np.random.default_rng(17)
    img = random_images(rng, 1)[0]
    cb = train_codebook(np.stack([img] * 40), WHOLE_IMAGE)
    assert cb.eigenvalues[0] == pytest.approx(0.0, abs=1e-12)
    gram = cb.basis @ cb.basis.T
    assert np.abs(gram - np.eye(CODE_COUNT)).max() < 1e-6
    codes = encode_all(np.stack([img] * 3), cb)
    assert codes.shape == (3, CODE_COUNT)
    assert np.abs(codes).max() < 1e-9


def test_encode_mean_image_is_zero_vector():
    rng = np.random.default_rng(19)
    images = random_images(rng, 50)
    cb = train_codebook(images, WHOLE_IMAGE)
    mean_img = cb.mean.reshape(1, SPIN_ROWS, SPIN_COLS)
    assert np.abs(encode_all(mean_img, cb)).max() < 1e-9


def test_encode_is_linear():
    rng = np.random.default_rng(23)
    images = random_images(rng, 40)
    cb = train_codebook(images, WHOLE_IMAGE)
    blend = 0.5 * (images[0] + images[1])
    lhs = encode_all(blend[None], cb)[0]
    rhs = 0.5 * encode_all(images[:2], cb).sum(axis=0)
    assert np.abs(lhs - rhs).max() < 1e-9


def test_reconstruction_improves_with_components():
    rng = np.random.default_rng(29)
    train = random_images(rng, 60, peaked=True)
    held_out = random_images(rng, 10, peaked=True)
    cb = train_codebook(train, WHOLE_IMAGE)

    def recon_error(n_comp):
        err = 0.0
        for img in held_out:
            centered = img.ravel() - cb.mean
            coeffs = cb.basis[:n_comp] @ centered
            err += float(np.square(centered - cb.basis[:n_comp].T @ coeffs).sum())
        return err

    assert recon_error(30) <= recon_error(10) + 1e-12


def test_training_reconstruction_error_matches_dropped_eigenvalues():
    rng = np.random.default_rng(31)
    images = random_images(rng, 80)
    cb = train_codebook(images, WHOLE_IMAGE)
    total = 0.0
    for img in images:
        centered = img.ravel() - cb.mean
        coeffs = cb.basis @ centered
        total += float(np.square(centered - cb.basis.T @ coeffs).sum())
    mean_residual = total / len(images)
    bound = float(cb.eigenvalues[CODE_COUNT:].sum())
    assert mean_residual <= bound + 1e-9
    assert mean_residual == pytest.approx(bound, rel=1e-6)


def test_pca_subspace_matches_svd_oracle():
    # direct SVD of the centered data is the independent eigendecomposition
    rng = np.random.default_rng(37)
    data = rng.normal(size=(50, SPIN_ROWS * SPIN_COLS))
    images = np.abs(data).reshape(-1, SPIN_ROWS, SPIN_COLS)
    cb = train_codebook(images, WHOLE_IMAGE)

    x = images.reshape(len(images), -1)
    xc = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(xc, full_matrices=False)
    oracle = vt[:CODE_COUNT]
    p_impl = cb.basis.T @ cb.basis
    p_oracle = oracle.T @ oracle
    assert np.abs(p_impl - p_oracle).max() < 1e-6


def test_patch_encode_pools_to_30_coefficients():
    rng = np.random.default_rng(39)
    images = random_images(rng, 40, peaked=True)
    cb = train_codebook(images, PATCH_11X11)
    codes = encode_all(images[:3], cb)
    assert codes.shape == (3, CODE_COUNT)
    assert np.all(np.isfinite(codes))
    for img, code in zip(images, codes):
        # one image's patch coefficients, mean-pooled
        patches = np.lib.stride_tricks.sliding_window_view(np.pad(img, 5), (11, 11))
        coeffs = (patches.reshape(-1, 121) - cb.mean) @ cb.basis.T
        assert code.tobytes() == coeffs.mean(axis=0).tobytes()


def test_encode_dimension_mismatch():
    # a codebook whose dims do not fit its kind cannot be built, so never encodes
    rng = np.random.default_rng(41)
    cb = train_codebook(random_images(rng, 40), PATCH_11X11)
    whole_cb = train_codebook(random_images(rng, 40), WHOLE_IMAGE)
    with pytest.raises(ValueError, match="codebook dims 121 do not match whole-image descriptors 496"):
        Codebook(kind=WHOLE_IMAGE, mean=cb.mean, basis=cb.basis)
    with pytest.raises(ValueError, match="codebook dims 496 do not match patch-11x11 descriptors 121"):
        replace(whole_cb, kind=PATCH_11X11)
    with pytest.raises(ValueError, match="unknown codebook kind 'bogus'"):
        replace(whole_cb, kind="bogus")


@pytest.mark.parametrize(
    "header, message",
    [
        ("whole-image,3,1", "codebook dims 3 do not match whole-image descriptors 496"),
        ("bogus,3,1", "unknown codebook kind 'bogus'"),
    ],
)
def test_load_codebook_names_a_kind_or_dims_fault_at_line_1(tmp_path, header, message):
    path = tmp_path / "cb.csv"
    path.write_text(f"{header}\n0,0,0\n1,0,0\n")
    with pytest.raises(ParseError, match=re.escape(f"{path}:1: {message}")):
        load_codebook(path)


# ---------------------------------------------------------------------------
# cluster_parts
# ---------------------------------------------------------------------------


def test_k1_labels_all_zero():
    rng = np.random.default_rng(43)
    codes = rng.normal(size=(20, 5))
    out = cluster_parts(codes, 1, seed=0)
    assert set(out.labels.tolist()) == {0}


def test_two_separated_blobs_recovered():
    rng = np.random.default_rng(47)
    blob_a = rng.normal(scale=0.01, size=(30, 4))
    blob_b = rng.normal(scale=0.01, size=(30, 4)) + 1.0
    codes = np.vstack([blob_a, blob_b])
    out = cluster_parts(codes, 2, seed=1)
    first, second = out.labels[:30], out.labels[30:]
    assert len(set(first.tolist())) == 1
    assert len(set(second.tolist())) == 1
    assert first[0] != second[0]


def test_kmeans_objective_non_increasing():
    rng = np.random.default_rng(53)
    codes = rng.normal(size=(200, 6))
    out = cluster_parts(codes, 4, seed=2)
    hist = out.inertia_history
    assert all(hist[i + 1] <= hist[i] + 1e-9 for i in range(len(hist) - 1))


def test_cluster_parts_deterministic():
    rng = np.random.default_rng(59)
    codes = rng.normal(size=(100, 6))
    a = cluster_parts(codes, 5, seed=7)
    b = cluster_parts(codes, 5, seed=7)
    assert np.array_equal(a.labels, b.labels)


def test_cluster_parts_k_bounds():
    codes = np.zeros((3, 2))
    with pytest.raises(ValueError):
        cluster_parts(codes, 0)
    with pytest.raises(ValueError):
        cluster_parts(codes, 4)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def test_codebook_roundtrip(tmp_path):
    rng = np.random.default_rng(61)
    cb = train_codebook(random_images(rng, 40), WHOLE_IMAGE)
    path = tmp_path / "cb.csv"
    save_codebook(cb, path)
    back = load_codebook(path)
    assert back.kind == cb.kind
    assert back.dims == cb.dims
    assert np.allclose(back.mean, cb.mean, atol=1e-15)
    assert np.allclose(back.basis, cb.basis, atol=1e-15)


def test_spin_pgm_dimensions(tmp_path):
    rng = np.random.default_rng(67)
    img = random_images(rng, 1)[0]
    path = tmp_path / "spin.pgm"
    write_spin_pgm(img, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == f"{SPIN_COLS} {SPIN_ROWS}"
    assert lines[2] == "255"
    assert len(lines) == 3 + SPIN_ROWS
