import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lidarshape import core
from lidarshape.core import (
    TWO_PI,
    Histogram1D,
    ParseError,
    PointCloud,
    Transform4DOF,
    apply_transform,
    emd_1d,
    load_cloud,
    one_blas_thread,
    save_cloud,
)

from _oracles import emd_lp, load_xyz_line_by_line


def random_cloud(rng, n=50, scale=5.0):
    return PointCloud(rng.uniform(-scale, scale, size=(n, 3)))


def random_transform(rng):
    return Transform4DOF(
        tx=rng.uniform(-3, 3),
        ty=rng.uniform(-3, 3),
        tz=rng.uniform(-3, 3),
        theta=rng.uniform(-math.pi, math.pi),
    )


# ---------------------------------------------------------------------------
# PointCloud
# ---------------------------------------------------------------------------


def test_cloud_rejects_empty_and_nonfinite():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.array([[0.0, np.nan, 0.0]]))
    with pytest.raises(ValueError):
        PointCloud(np.array([[np.inf, 0.0, 0.0]]))


def test_cloud_preserves_order():
    pts = np.array([[3.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
    cloud = PointCloud(pts)
    assert np.array_equal(cloud.points[:, 0], [3.0, 1.0, 2.0])
    assert len(cloud) == 3


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def test_load_xyz_direct(tmp_path):
    p = tmp_path / "two.xyz"
    p.write_text("0 0 0\n1 0 0")
    cloud = load_cloud(p)
    assert len(cloud) == 2
    assert np.array_equal(cloud.points, [[0, 0, 0], [1, 0, 0]])


def test_load_xyz_skips_comments_and_blanks(tmp_path):
    p = tmp_path / "c.xyz"
    p.write_text("# header\n\n1 2 3\n# mid\n4 5 6\n")
    assert len(load_cloud(p)) == 2


def test_load_xyz_wrong_field_count(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("1 2")
    with pytest.raises(ParseError) as exc:
        load_cloud(p)
    assert exc.value.line_no == 1


def test_load_xyz_bad_token_reports_line(tmp_path):
    p = tmp_path / "bad.xyz"
    p.write_text("0 0 0\n1 oops 3\n")
    with pytest.raises(ParseError) as exc:
        load_cloud(p)
    assert exc.value.line_no == 2
    assert "oops" in str(exc.value)


def _load_outcome(load):
    """The loaded points' shape and bytes, or the error's type, text and line;
    any warning counts as a failure."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = load()
    except ValueError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line_no", None)
    return "ok", pts.shape, pts.tobytes()


def assert_xyz_matches_line_by_line(path):
    new = _load_outcome(lambda: load_cloud(path).points)
    old = _load_outcome(lambda: PointCloud(load_xyz_line_by_line(path)).points)
    assert new == old
    return new


XYZ_CASES = {
    "crlf": b"0 1 2\r\n3.5 -4 5e-3\r\n",
    "cr_only": b"0 1 2\r3 4 5\r",
    "tabs": b"0\t1\t2\n\t3 4\t5\t\n",
    "blank_lines_between_rows": b"0 1 2\n\n   \n3 4 5\n\n",
    "single_row": b"1.25 -2.5 3.75",
    "comment_line": b"# scanner A\n0 1 2\n3 4 5\n",
    "underscore_token": b"1_0 2 3\n4 5 6\n",
    "four_columns_at_line_3": b"0 1 2\n3 4 5\n6 7 8 9\n10 11 12\n",
    "all_rows_four_columns": b"0 1 2 3\n4 5 6 7\n",
    "bad_token_at_line_2": b"0 1 2\n1 oops 3\n",
    "nan_token": b"0 1 2\nnan 4 5\n",
    "empty": b"",
    "only_blank_lines": b"\n  \n\t\n",
    "only_comments": b"# nothing here\n",
}


@pytest.mark.parametrize("name", sorted(XYZ_CASES))
def test_load_xyz_matches_line_by_line(tmp_path, name):
    p = tmp_path / f"{name}.xyz"
    p.write_bytes(XYZ_CASES[name])
    assert_xyz_matches_line_by_line(p)


def test_load_xyz_error_cases(tmp_path):
    def outcome(name):
        p = tmp_path / f"{name}.xyz"
        p.write_bytes(XYZ_CASES[name])
        return assert_xyz_matches_line_by_line(p)

    kind, message, line_no = outcome("four_columns_at_line_3")
    assert (kind, line_no) == ("ParseError", 3)
    assert "expected 3 fields, got 4" in message
    assert outcome("nan_token")[:2] == ("ValueError", "point cloud contains non-finite coordinates")
    kind, message, line_no = outcome("empty")  # and no numpy "no data" warning
    assert (kind, line_no) == ("ParseError", 1)
    assert message.endswith(":1: file contains no points")
    assert outcome("underscore_token")[0] == "ok"  # float() takes "1_0", loadtxt does not


_xyz_tokens = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["-0", "1e400", "nan", "inf", "1_0", "0x10", "1,5", "oops", "#", "\u0663"]),
)
_xyz_lines = st.one_of(
    st.lists(_xyz_tokens, min_size=3, max_size=3),
    st.lists(_xyz_tokens, min_size=0, max_size=5),
).flatmap(
    lambda toks: st.sampled_from([" ", "\t", "  ", "\x0c"]).map(lambda sep: sep.join(toks))
)


@settings(max_examples=200, deadline=None)
@given(
    lines=st.lists(_xyz_lines, min_size=0, max_size=12),
    newline=st.sampled_from(["\n", "\r\n", "\r"]),
    final_newline=st.booleans(),
)
def test_load_xyz_matches_line_by_line_on_generated_text(tmp_path_factory, lines, newline, final_newline):
    p = tmp_path_factory.mktemp("xyz") / "gen.xyz"
    p.write_bytes((newline.join(lines) + (newline if final_newline else "")).encode())
    assert_xyz_matches_line_by_line(p)


def test_load_missing_file():
    with pytest.raises(FileNotFoundError):
        load_cloud("/nonexistent/cloud.xyz")


def test_save_single_point_format_normalized(tmp_path):
    p = tmp_path / "one.xyz"
    save_cloud(PointCloud(np.array([[0.0, 0.0, 0.0]])), p)
    line = p.read_text().strip()
    assert len(line.split()) == 3
    assert [float(f) for f in line.split()] == [0.0, 0.0, 0.0]


def test_save_to_directory_is_io_error(tmp_path):
    with pytest.raises(OSError):
        save_cloud(PointCloud(np.zeros((1, 3))), tmp_path)


def test_roundtrip_bitwise_on_9_digit_text(tmp_path):
    rng = np.random.default_rng(11)
    cloud = random_cloud(rng, n=100, scale=123.0)
    p1, p2 = tmp_path / "a.xyz", tmp_path / "b.xyz"
    save_cloud(cloud, p1)
    again = load_cloud(p1)
    save_cloud(again, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_ply_subset(tmp_path):
    p = tmp_path / "v.ply"
    p.write_text(
        "ply\nformat ascii 1.0\ncomment made by hand\n"
        "element vertex 2\nproperty float x\nproperty float y\nproperty float z\n"
        "end_header\n0 0 0\n1.5 2 3\n"
    )
    cloud = load_cloud(p)
    assert len(cloud) == 2
    assert cloud.points[1, 0] == 1.5


PLY_HEADER = (
    "ply\nformat ascii 1.0\ncomment made by hand\n"
    "element vertex 3\nproperty float x\nproperty float y\nproperty float z\n"
    "end_header\n"
)  # 8 lines: vertex k sits on line 8 + k


@pytest.mark.parametrize(
    "body, line_no, message",
    [
        ("0 0 0\n1 oops 2\n3 4 5\n", 10, "not a number: 'oops'"),
        ("0 0 0\n\n3 4 5\n", 10, "blank line inside vertex list"),
        ("0 0 0\n# note\n3 4 5\n", 10, "blank line inside vertex list"),
        ("0 0 0\n1 2 3\n4 5 6 7\n", 11, "expected 3 fields, got 4"),
        ("0 0 0\n1 2 3\n", 10, "expected 3 vertices, file ended early"),
        ("0 0 0\n\n", 10, "blank line inside vertex list"),
    ],
)
def test_load_ply_body_errors_keep_line_numbers(tmp_path, body, line_no, message):
    p = tmp_path / "v.ply"
    p.write_text(PLY_HEADER + body)
    with pytest.raises(ParseError) as exc:
        load_cloud(p)
    assert exc.value.line_no == line_no
    assert message in str(exc.value)


@pytest.mark.parametrize("count", ["abc", "-2", "2.5"])
def test_load_ply_rejects_bad_vertex_count(tmp_path, count):
    p = tmp_path / "v.ply"
    p.write_text(PLY_HEADER.replace("element vertex 3", f"element vertex {count}") + "0 0 0\n")
    with pytest.raises(ParseError) as exc:
        load_cloud(p)
    assert exc.value.path == str(p)
    assert exc.value.line_no == 4
    assert f"vertex count must be a non-negative integer: {count!r}" in str(exc.value)


def test_load_ply_ignores_lines_after_the_vertices(tmp_path):
    p = tmp_path / "v.ply"
    p.write_text(PLY_HEADER + "0 0 0\r\n1 2 3\n4 5 6\nnot a vertex\n")
    assert load_cloud(p).points.tobytes() == np.array(
        [[0, 0, 0], [1, 2, 3], [4, 5, 6]], dtype=np.float64
    ).tobytes()


def test_load_ply_rejects_extra_properties(tmp_path):
    p = tmp_path / "v.ply"
    p.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\nproperty float intensity\n"
        "end_header\n0 0 0 9\n"
    )
    with pytest.raises(ParseError):
        load_cloud(p)


# ---------------------------------------------------------------------------
# Transform4DOF
# ---------------------------------------------------------------------------


def test_transform_identity():
    cloud = PointCloud(np.array([[1.0, 2.0, 3.0], [-1.0, 0.5, 2.0]]))
    out = apply_transform(cloud, Transform4DOF())
    assert np.array_equal(out.points, cloud.points)


def test_transform_quarter_turn():
    cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]))
    out = apply_transform(cloud, Transform4DOF(theta=math.pi / 2))
    assert np.allclose(out.points, [[0.0, 1.0, 0.0]], atol=1e-12)


def test_theta_normalized_to_half_open_interval():
    assert Transform4DOF(theta=3 * math.pi).theta == pytest.approx(math.pi)
    assert Transform4DOF(theta=-math.pi).theta == pytest.approx(math.pi)
    assert Transform4DOF(theta=2 * math.pi).theta == pytest.approx(0.0)


_coordinate = st.floats(-1e3, 1e3)
_transforms = st.builds(
    Transform4DOF,
    tx=_coordinate,
    ty=_coordinate,
    tz=_coordinate,
    theta=st.one_of(st.sampled_from([math.pi, -math.pi]), st.floats(-TWO_PI, TWO_PI)),
)
_clouds = arrays(np.float64, st.tuples(st.integers(1, 30), st.just(3)), elements=_coordinate)


def seeded_examples(seed, count, names):
    """The cases an earlier seeded loop drew: one cloud from `seed`, then
    `count` draws of one transform per name, as explicit examples."""

    def decorate(test):
        rng = np.random.default_rng(seed)
        points = random_cloud(rng).points
        for _ in range(count):
            test = example(points=points, **{n: random_transform(rng) for n in names})(test)
        return test

    return decorate


def tolerance(points, *transforms):
    """1e-9 times (1 + the largest coordinate or translation magnitude)."""
    shifts = [abs(v) for t in transforms for v in (t.tx, t.ty, t.tz)]
    return 1e-9 * (1.0 + max([float(np.abs(points).max())] + shifts))


@settings(max_examples=300, deadline=None)
@given(points=_clouds, t=_transforms)
@seeded_examples(7, 100, ["t"])
def test_inverse_composition_is_identity(points, t):
    cloud = PointCloud(points)
    back = apply_transform(apply_transform(cloud, t), t.inverse())
    assert np.abs(back.points - points).max() <= tolerance(points, t)


@settings(max_examples=300, deadline=None)
@given(points=_clouds, t1=_transforms, t2=_transforms)
@seeded_examples(8, 20, ["t1", "t2"])
def test_compose_matches_sequential_application(points, t1, t2):
    cloud = PointCloud(points)
    seq = apply_transform(apply_transform(cloud, t1), t2)
    fused = apply_transform(cloud, t2.compose(t1))
    assert np.abs(seq.points - fused.points).max() <= tolerance(points, t1, t2)


def test_transform_preserves_pairwise_distances():
    rng = np.random.default_rng(9)
    cloud = random_cloud(rng, n=30)
    t = random_transform(rng)
    moved = apply_transform(cloud, t)
    d0 = np.linalg.norm(cloud.points[:, None] - cloud.points[None, :], axis=2)
    d1 = np.linalg.norm(moved.points[:, None] - moved.points[None, :], axis=2)
    assert np.abs(d0 - d1).max() < 1e-9


# ---------------------------------------------------------------------------
# Histogram1D
# ---------------------------------------------------------------------------


def test_histogram_from_values_clamps_out_of_range():
    h = Histogram1D.from_values([-5.0, 0.5, 99.0], 0.0, 1.0, 4)
    assert h.mass[0] == pytest.approx(1 / 3)  # below lo
    assert h.mass[2] == pytest.approx(1 / 3)  # 0.5
    assert h.mass[3] == pytest.approx(1 / 3)  # above hi
    assert h.total() == pytest.approx(1.0, abs=1e-9)


def test_histogram_normalizes_positive_mass():
    rng = np.random.default_rng(5)
    h = Histogram1D.from_values(rng.uniform(0, 1, 1000), 0.0, 1.0, 16)
    assert h.total() == pytest.approx(1.0, abs=1e-9)


def test_histogram_bin_boundary_goes_right():
    h = Histogram1D.from_values([0.25], 0.0, 1.0, 4)
    assert h.mass[1] == 1.0


def test_histogram_rejects_bad_ranges():
    with pytest.raises(ValueError):
        Histogram1D.empty(1.0, 1.0, 4)
    with pytest.raises(ValueError):
        Histogram1D(0.0, 1.0, np.array([0.5, -0.5]))


# ---------------------------------------------------------------------------
# emd_1d
# ---------------------------------------------------------------------------


def uniform_support_pair(rng, bins):
    a = rng.uniform(0, 1, bins)
    b = rng.uniform(0, 1, bins)
    return (
        Histogram1D(0.0, float(bins), a / a.sum()),
        Histogram1D(0.0, float(bins), b / b.sum()),
    )


def test_emd_identity_is_zero():
    h = Histogram1D.from_values([0.1, 0.5, 0.9], 0.0, 1.0, 8)
    assert emd_1d(h, h) == 0.0


def test_emd_single_mover_analytic():
    a = Histogram1D(0.0, 6.0, np.array([1.0, 0, 0, 0, 0, 0]))
    b = Histogram1D(0.0, 6.0, np.array([0, 0, 0, 1.0, 0, 0]))
    assert emd_1d(a, b) == pytest.approx(3.0)


def test_emd_mismatched_support_raises():
    a = Histogram1D.empty(0.0, 1.0, 4)
    b = Histogram1D.empty(0.0, 2.0, 4)
    with pytest.raises(ValueError, match="support"):
        emd_1d(Histogram1D(0.0, 1.0, np.full(4, 0.25)), Histogram1D(0.0, 2.0, np.full(4, 0.25)))
    del a, b


def test_emd_matches_transportation_lp():
    rng = np.random.default_rng(13)
    for _ in range(50):
        bins = int(rng.integers(2, 7))
        a, b = uniform_support_pair(rng, bins)
        expected = emd_lp(a.mass, b.mass, a.bin_width)
        assert emd_1d(a, b) == pytest.approx(expected, abs=1e-9)


def test_emd_metric_axioms():
    rng = np.random.default_rng(17)
    for _ in range(50):
        a, b = uniform_support_pair(rng, 6)
        c, _ = uniform_support_pair(rng, 6)
        dab, dba = emd_1d(a, b), emd_1d(b, a)
        assert dab == pytest.approx(dba, abs=1e-12)
        assert dab >= 0
        assert emd_1d(a, c) <= dab + emd_1d(b, c) + 1e-12


def test_one_blas_thread_pins_one_thread_and_restores_the_count():
    get, put = core._openblas_thread_calls()
    before = get()
    put(2)  # a no-op where numpy uses another BLAS; get() then stays 1
    try:
        two = get()
        with pytest.raises(RuntimeError):
            with one_blas_thread():
                assert get() == 1
                raise RuntimeError("the count is restored on an error too")
        assert get() == two
    finally:
        put(before)
