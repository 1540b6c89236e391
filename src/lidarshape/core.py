"""Core geometry types, point-cloud file I/O, and shared numeric utilities.

Everything downstream (octree, shape distributions, spin images, alignment,
ROI, evaluation) builds on the types in this module: point clouds as (n, 3)
float64 arrays, fixed-range 1-D histograms, and the 4-degree-of-freedom
rigid transform used for upright street objects (planar translation,
vertical translation, rotation about the z axis).

All types are immutable after construction and every function here but
`one_blas_thread` (which sets the process-wide BLAS thread count) is pure,
so concurrent use from multiple threads is safe.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

TWO_PI = 2.0 * math.pi


class ParseError(ValueError):
    """Malformed point-cloud file; carries path and 1-based line number."""

    def __init__(self, path, line_no, message):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


def _normalize_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    wrapped = math.remainder(theta, TWO_PI)
    if wrapped <= -math.pi:
        wrapped += TWO_PI
    return wrapped


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of 3-D points, optionally tagged with a category label.

    `points` is an (n, 3) float64 array; n >= 1 and every coordinate must be
    finite. Row order is preserved by every operation that returns a cloud.
    """

    points: np.ndarray
    label: Optional[str] = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be an (n, 3) array, got shape {pts.shape}")
        if pts.shape[0] < 1:
            raise ValueError("point cloud must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point cloud contains non-finite coordinates")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def bbox_diagonal(self) -> float:
        """Bounding-box diagonal; a cheap upper bound on the true diameter."""
        ext = self.points.max(axis=0) - self.points.min(axis=0)
        return float(np.linalg.norm(ext))


@dataclass(frozen=True)
class Histogram1D:
    """Fixed-range binned distribution over [lo, hi] with B bins.

    Values outside [lo, hi] clamp into the boundary bins so total mass is
    conserved. `mass` sums to 1 after `normalized()` whenever any positive
    mass was voted; an all-zero histogram marks "no data".
    """

    lo: float
    hi: float
    mass: np.ndarray

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"histogram range is empty: [{self.lo}, {self.hi})")
        m = np.asarray(self.mass, dtype=np.float64)
        if m.ndim != 1 or m.shape[0] < 1:
            raise ValueError("mass must be a 1-D array with at least one bin")
        if (m < 0).any() or not np.isfinite(m).all():
            raise ValueError("histogram mass must be finite and non-negative")
        m.setflags(write=False)
        object.__setattr__(self, "mass", m)
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))

    @property
    def bins(self) -> int:
        return self.mass.shape[0]

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bins

    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.bins + 1)

    def total(self) -> float:
        return float(self.mass.sum())

    def cdf(self) -> np.ndarray:
        return np.cumsum(self.mass)

    def normalized(self) -> "Histogram1D":
        total = self.mass.sum()
        if total <= 0:
            return self
        return Histogram1D(self.lo, self.hi, self.mass / total)

    @staticmethod
    def empty(lo: float, hi: float, bins: int) -> "Histogram1D":
        return Histogram1D(lo, hi, np.zeros(int(bins)))

    @staticmethod
    def bin_indices(values: np.ndarray, lo: float, hi: float, bins: int) -> np.ndarray:
        """Bin of each value as int64; out-of-range values clamp to the edge bins."""
        values = np.asarray(values, dtype=np.float64).ravel()
        width = (hi - lo) / bins
        idx = np.floor((values - lo) / width).astype(np.int64)
        np.clip(idx, 0, bins - 1, out=idx)
        return idx

    @staticmethod
    def from_values(values: np.ndarray, lo: float, hi: float, bins: int) -> "Histogram1D":
        """Normalized counts of the values in clamped bins."""
        bins = int(bins)
        idx = Histogram1D.bin_indices(values, lo, hi, bins)
        mass = np.bincount(idx, minlength=bins).astype(np.float64)
        return Histogram1D(lo, hi, mass).normalized()


@dataclass(frozen=True)
class Transform4DOF:
    """Rigid motion with 4 degrees of freedom: p -> Rz(theta)*p + (tx, ty, tz).

    The rotation acts on xy about the origin and is applied before the
    translation. theta is normalized into (-pi, pi] on construction.
    """

    tx: float = 0.0
    ty: float = 0.0
    tz: float = 0.0
    theta: float = 0.0

    def __post_init__(self):
        vals = (self.tx, self.ty, self.tz, self.theta)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError(f"transform parameters must be finite, got {vals}")
        object.__setattr__(self, "theta", _normalize_angle(self.theta))

    @staticmethod
    def identity() -> "Transform4DOF":
        return Transform4DOF(0.0, 0.0, 0.0, 0.0)

    def rotation2d(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]])

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.asarray(pts, dtype=np.float64)
        out = np.empty_like(pts)
        out[:, :2] = pts[:, :2] @ self.rotation2d().T
        out[:, 0] += self.tx
        out[:, 1] += self.ty
        out[:, 2] = pts[:, 2] + self.tz
        return out

    def inverse(self) -> "Transform4DOF":
        c, s = math.cos(-self.theta), math.sin(-self.theta)
        return Transform4DOF(
            tx=-(c * self.tx - s * self.ty),
            ty=-(s * self.tx + c * self.ty),
            tz=-self.tz,
            theta=-self.theta,
        )

    def compose(self, first: "Transform4DOF") -> "Transform4DOF":
        """Transform equivalent to applying `first`, then `self`."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        return Transform4DOF(
            tx=c * first.tx - s * first.ty + self.tx,
            ty=s * first.tx + c * first.ty + self.ty,
            tz=self.tz + first.tz,
            theta=self.theta + first.theta,
        )


def apply_transform(cloud: PointCloud, t: Transform4DOF) -> PointCloud:
    """Apply a 4-DOF transform to every point; order and length preserved."""
    return PointCloud(t.apply_points(cloud.points), label=cloud.label)


def emd_1d(a: Histogram1D, b: Histogram1D) -> float:
    """Earth Mover's Distance between two normalized equal-support histograms.

    For 1-D histograms on a shared support the optimal transport cost is the
    L1 distance between the CDFs scaled by the bin width, which this computes
    in closed form. Symmetric, non-negative, and zero iff the histograms are
    equal.
    """
    if a.bins != b.bins or a.lo != b.lo or a.hi != b.hi:
        raise ValueError(
            "mismatched histogram support: "
            f"[{a.lo}, {a.hi}] x {a.bins} vs [{b.lo}, {b.hi}] x {b.bins}"
        )
    for name, h in (("first", a), ("second", b)):
        if abs(h.total() - 1.0) > 1e-6:
            raise ValueError(f"{name} histogram is not normalized (sum={h.total()})")
    return float(np.abs(a.cdf() - b.cdf()).sum() * a.bin_width)


@functools.lru_cache(maxsize=None)
def _openblas_thread_calls():
    """(get, set) thread-count calls of numpy's bundled OpenBLAS; no-ops elsewhere."""
    import ctypes

    libs = (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so")
    lib = next((ctypes.CDLL(str(path)) for path in sorted(libs)), None)
    if not hasattr(lib, "scipy_openblas_set_num_threads64_"):
        return (lambda: 1), (lambda threads: None)
    get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


@contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the old count, so
    eigensolver bits do not depend on OPENBLAS_NUM_THREADS. Does nothing
    where numpy uses another BLAS."""
    get, put = _openblas_thread_calls()
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)


# ---------------------------------------------------------------------------
# File I/O: xyz-ascii (read/write) and a ply-ascii vertex subset (read only).
# ---------------------------------------------------------------------------

def _parse_xyz_line(path, line_no, line) -> Optional[tuple]:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    fields = stripped.split()
    if len(fields) != 3:
        raise ParseError(path, line_no, f"expected 3 fields, got {len(fields)}: {stripped!r}")
    try:
        return tuple(float(f) for f in fields)
    except ValueError:
        bad = next(f for f in fields if not _is_float(f))
        raise ParseError(path, line_no, f"not a number: {bad!r}") from None


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _parse_xyz_lines(path, lines, start: int = 1, skip_blank: bool = True) -> np.ndarray:
    """Rows of `x y z` text `lines`, the first of them numbered `start`.

    Blank and `#` lines are skipped, or rejected when `skip_blank` is False.
    One vectorized parse runs first; it is kept only when it gives three
    columns and a row per line that must hold one. Otherwise every line is
    parsed alone, so a ParseError names the first bad line. numpy accepts a
    subset of the tokens `float` does and rounds them the same way.
    """
    # an all-blank input would make loadtxt warn; the loop below rejects it
    if any(map(str.strip, lines)):
        try:
            rows = np.loadtxt(lines, dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            rows = None
        if rows is not None and rows.shape[1] == 3 and (skip_blank or len(rows) == len(lines)):
            return rows
    parsed_rows = []
    for line_no, line in enumerate(lines, start=start):
        parsed = _parse_xyz_line(path, line_no, line)
        if parsed is not None:
            parsed_rows.append(parsed)
        elif not skip_blank:
            raise ParseError(path, line_no, "blank line inside vertex list")
    return np.array(parsed_rows, dtype=np.float64)


def _load_xyz(path: Path) -> np.ndarray:
    with open(path, "r") as fh:
        # universal newlines make "\n" the only line end, as iterating `fh` would
        rows = _parse_xyz_lines(path, fh.read().split("\n"))
    if len(rows) == 0:
        raise ParseError(path, 1, "file contains no points")
    return rows


def _load_ply(path: Path) -> np.ndarray:
    """Read the ascii PLY subset: element vertex with float x, y, z only."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0].strip() != "ply":
        raise ParseError(path, 1, "missing 'ply' magic line")
    n_vertex = None
    properties = []
    body_start = None
    for i, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if line.startswith("comment") or not line:
            continue
        if line.startswith("format"):
            if "ascii" not in line:
                raise ParseError(path, i, f"only ascii PLY is supported: {line!r}")
        elif line.startswith("element"):
            fields = line.split()
            if len(fields) != 3 or fields[1] != "vertex":
                raise ParseError(path, i, f"only 'element vertex' is supported: {line!r}")
            try:
                n_vertex = int(fields[2])
            except ValueError:
                n_vertex = -1
            if n_vertex < 0:
                raise ParseError(
                    path, i, f"vertex count must be a non-negative integer: {fields[2]!r}"
                )
        elif line.startswith("property"):
            fields = line.split()
            if len(fields) != 3 or fields[1] not in ("float", "float32", "double", "float64"):
                raise ParseError(path, i, f"unsupported property: {line!r}")
            properties.append(fields[2])
        elif line == "end_header":
            body_start = i
            break
        else:
            raise ParseError(path, i, f"unsupported header line: {line!r}")
    if body_start is None or n_vertex is None:
        raise ParseError(path, len(lines), "incomplete PLY header")
    if properties != ["x", "y", "z"]:
        raise ParseError(path, body_start, f"vertex properties must be x, y, z; got {properties}")
    body = lines[body_start : body_start + n_vertex]
    rows = _parse_xyz_lines(path, body, start=body_start + 1, skip_blank=False)
    if len(body) < n_vertex:
        raise ParseError(path, len(lines), f"expected {n_vertex} vertices, file ended early")
    return rows


def load_cloud(path, label: Optional[str] = None) -> PointCloud:
    """Load a point cloud from a ply-ascii file (extension .ply, any case) or
    else an xyz-ascii one. Raises FileNotFoundError for missing files and
    ParseError (with line number) for malformed content.
    """
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such point cloud file: {path}")
    pts = _load_ply(path) if path.suffix.lower() == ".ply" else _load_xyz(path)
    return PointCloud(pts, label=label)


def save_cloud(cloud: PointCloud, path) -> None:
    """Write xyz-ascii, one 'x y z' line per point, 9 significant digits."""
    path = Path(path)
    with open(path, "w") as fh:
        for x, y, z in cloud.points:
            fh.write(f"{x:.9g} {y:.9g} {z:.9g}\n")
