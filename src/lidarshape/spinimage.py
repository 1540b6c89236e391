"""Spin images, PCA codebooks, point encoding, and part clustering.

A spin image bins a point's neighborhood by radial distance from a spin axis
(alpha, 16 columns over [0, R]) and signed height along it (beta, 31 rows
over [-R, R]), with bilinear vote splitting. With the global +z axis the
descriptor is invariant to planar translation, vertical translation, and
rotation about z, which matches how upright street objects can move.

All images are voted by one kernel over blocks of query points: each block
holds about BLOCK_PAIRS (query, point) pairs, computes their offsets once,
gives the pairs outside the radius (and each query's own entry) weight 0.0,
and accumulates the four bilinear shares of every pair with one bincount.
The result is bit for bit what a per-point loop with `np.add.at` gives. For
the global +z axis, beta is dz and alpha is sqrt(dx^2 + dy^2), which is
exactly rel @ e_z and |rel - beta e_z| in floating point, not only in value.
`spin_image_at` runs the same kernel on a block of one point.

Codebooks compress descriptors to 30 PCA coefficients, either over whole
31x16 images (the default; most robust) or over 11x11 pixel patches (finer
but noise-sensitive). Points are grouped into parts by k-means over their
codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .core import ParseError, PointCloud

SPIN_ROWS = 31  # beta axis, [-R, R]
SPIN_COLS = 16  # alpha axis, [0, R]
SPIN_CELLS = SPIN_ROWS * SPIN_COLS
BLOCK_PAIRS = 2**14  # (query, point) pairs per spin-image array pass
CODE_COUNT = 30
PATCH_SIZE = 11
WHOLE_IMAGE = "whole-image"
PATCH_11X11 = "patch-11x11"
GLOBAL_Z = "global-z"
LOCAL_NORMAL = "local-normal"


@dataclass(frozen=True)
class SpinImage:
    """31x16 non-negative grid; normalized to unit mass unless no neighbor
    fell inside the support radius (then all-zero, flagged by is_empty)."""

    grid: np.ndarray
    support_radius: float

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        if g.shape != (SPIN_ROWS, SPIN_COLS):
            raise ValueError(f"spin image must be {SPIN_ROWS}x{SPIN_COLS}, got {g.shape}")
        if np.any(g < 0):
            raise ValueError("spin image entries must be non-negative")
        g.setflags(write=False)
        object.__setattr__(self, "grid", g)

    @property
    def is_empty(self) -> bool:
        return float(self.grid.sum()) == 0.0

    def vector(self) -> np.ndarray:
        return self.grid.ravel()


@dataclass(frozen=True)
class Codebook:
    """Orthonormal PCA basis (30 x dims) with the training mean.

    eigenvalues holds the full descending spectrum when the codebook was
    trained in-process; it is absent after loading from file.
    """

    kind: str
    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: Optional[np.ndarray] = None

    @property
    def dims(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class PointCode:
    coeffs: np.ndarray


@dataclass(frozen=True)
class PartLabeling:
    labels: np.ndarray
    k: int
    centers: np.ndarray
    inertia_history: tuple


def default_support_radius(cloud: PointCloud) -> float:
    """Half the bounding-box diagonal."""
    return 0.5 * cloud.bbox_diagonal()


def _local_normal(points: np.ndarray, index: int, k_neighbors: int = 16) -> np.ndarray:
    """PCA normal over the k nearest neighbors, flipped into the upper
    hemisphere."""
    p = points[index]
    d2 = np.square(points - p).sum(axis=1)
    order = np.argsort(d2, kind="stable")
    take = order[: min(k_neighbors + 1, len(points))]  # includes the point itself
    nbhd = points[take]
    centered = nbhd - nbhd.mean(axis=0)
    cov = centered.T @ centered
    _, vecs = np.linalg.eigh(cov)
    normal = vecs[:, 0]
    if normal[2] < 0:
        normal = -normal
    return normal


def _check_radius(cloud: PointCloud, support_radius: Optional[float]) -> float:
    if support_radius is None:
        support_radius = default_support_radius(cloud)
    if not support_radius > 0:
        raise ValueError(f"support_radius must be positive, got {support_radius}")
    return support_radius


def _spin_axes(points: np.ndarray, idx: np.ndarray, axis_mode: str) -> Optional[np.ndarray]:
    """Per-query spin axes, (b, 3); None stands for the global +z axis."""
    if axis_mode == GLOBAL_Z:
        return None
    if axis_mode == LOCAL_NORMAL:
        return np.stack([_local_normal(points, int(i)) for i in idx])
    raise ValueError(f"unknown axis_mode {axis_mode!r}")


class _BlockVoter:
    """Votes the spin images of up to `block` query points per array pass.

    Every (query, point) pair of a block votes; pairs outside the support
    radius and each query's own entry vote weight 0.0, which leaves a
    non-negative cell's bits unchanged. The four bilinear shares go through
    one bincount in the order 00, 01, 10, 11, so each cell sums its votes in
    the same order as four successive `np.add.at` passes over the neighbors.

    The (block, n) pair buffers are allocated once and reused by every
    block: fresh temporaries per block would grow and trim the heap on each
    pass, and those page faults cost about as much as the arithmetic.
    """

    def __init__(self, points: np.ndarray, support_radius: float, block: int):
        n = points.shape[0]
        self.xyz = np.ascontiguousarray(points.T)
        self.radius = support_radius
        self.base = (np.arange(block) * SPIN_CELLS)[:, None]
        self.real = np.empty((8, block, n))
        self.ints = np.empty((4, block, n), dtype=np.int64)
        self.masks = np.empty((2, block, n), dtype=bool)
        self.keys = np.empty(4 * block * n, dtype=np.int64)
        self.weights = np.empty(4 * block * n)

    def grids(self, idx: np.ndarray, axes: Optional[np.ndarray]) -> np.ndarray:
        """Normalized (b, 31, 16) grids of the queries `idx`; `axes` holds
        their spin axes as (b, 3) rows, None for the global +z axis."""
        b, n = idx.shape[0], self.xyz.shape[1]
        dx, dy, dz, beta, u, v, tmp, wv0 = (a[:b] for a in self.real)
        col0, col1, row0, row1 = (a[:b] for a in self.ints)
        keep, drop = (a[:b] for a in self.masks)
        keys = self.keys[: 4 * b * n].reshape(4, b, n)
        weights = self.weights[: 4 * b * n].reshape(4, b, n)
        radius = self.radius

        # coordinates far apart may overflow to inf (and, on a tilted axis, to
        # nan); such pairs lie outside the radius and are masked out below
        with np.errstate(over="ignore", invalid="ignore"):
            for c, d in zip(self.xyz, (dx, dy, dz)):
                np.subtract(c[None, :], c[idx, None], out=d)
            # |rel| summed as np.linalg.norm sums it: (dx^2 + dy^2) + dz^2
            np.multiply(dx, dx, out=u)
            u += np.multiply(dy, dy, out=tmp)
            np.add(u, np.multiply(dz, dz, out=tmp), out=tmp)
            np.less_equal(np.sqrt(tmp, out=tmp), radius, out=keep)
            if axes is None:
                # exactly rel @ e_z and |rel - beta e_z| for the global +z axis
                beta = dz
                np.sqrt(u, out=u)
            else:
                ax, ay, az = (a[:, None] for a in axes.T)
                np.multiply(dx, ax, out=beta)
                beta += np.multiply(dy, ay, out=tmp)
                beta += np.multiply(dz, az, out=tmp)
                for d, a in ((dx, ax), (dy, ay), (dz, az)):
                    d -= np.multiply(beta, a, out=tmp)  # the part normal to the axis
                np.multiply(dx, dx, out=u)
                u += np.multiply(dy, dy, out=tmp)
                u += np.multiply(dz, dz, out=tmp)
                np.sqrt(u, out=u)
            # u = alpha / col_w - 0.5, v = (beta + R) / row_h - 0.5
            u /= radius / SPIN_COLS
            u -= 0.5
            np.add(beta, radius, out=v)
            v /= 2.0 * radius / SPIN_ROWS
            v -= 0.5
        keep[np.arange(b), idx] = False
        np.logical_not(keep, out=drop)
        # masked pairs vote at the origin cell, so no far value reaches the int cast
        np.copyto(u, 0.0, where=drop)
        np.copyto(v, 0.0, where=drop)

        # u, v become the fractional parts fu, fv (0.0 on masked pairs)
        for w, lo in ((u, col0), (v, row0)):
            np.floor(w, out=tmp)
            np.copyto(lo, tmp, casting="unsafe")
            w -= tmp
        np.subtract(1.0, v, out=wv0)
        np.copyto(wv0, 0.0, where=drop)
        wu0 = np.subtract(1.0, u, out=tmp)

        np.add(col0, 1, out=col1)
        np.add(row0, 1, out=row1)
        for col in (col0, col1):
            np.clip(col, 0, SPIN_COLS - 1, out=col)
        for row in (row0, row1):
            np.clip(row, 0, SPIN_ROWS - 1, out=row)
            row *= SPIN_COLS
            row += self.base[:b]
        for k, (row, wv) in enumerate(((row0, wv0), (row1, v))):
            for m, (col, wu) in enumerate(((col0, wu0), (col1, u))):
                np.add(row, col, out=keys[2 * k + m])
                np.multiply(wv, wu, out=weights[2 * k + m])
        grids = np.bincount(keys.ravel(), weights.ravel(), minlength=b * SPIN_CELLS)
        grids = grids.reshape(b, SPIN_ROWS, SPIN_COLS)

        # per-image sums over the contiguous 31x16 grid, as grid.sum() adds them
        mass = np.array([g.sum() for g in grids])[:, None, None]
        np.divide(grids, mass, out=grids, where=mass > 0)
        return grids


def spin_image_at(
    cloud: PointCloud,
    index: int,
    axis_mode: str = GLOBAL_Z,
    support_radius: Optional[float] = None,
) -> SpinImage:
    """Spin image at one point: bilinear (alpha, beta) votes from every other
    point within the support radius, normalized to unit mass.

    The one-image entry point: it runs a single one-query block, so checking
    a few images of a large cloud (the 2**14 + 3-point tests) costs O(n), not
    the full `spin_images` pass."""
    support_radius = _check_radius(cloud, support_radius)
    pts = cloud.points
    idx = np.array([range(len(cloud))[index]])  # wraps negative, rejects out-of-range
    voter = _BlockVoter(pts, support_radius, 1)
    return SpinImage(voter.grids(idx, _spin_axes(pts, idx, axis_mode))[0], support_radius)


def spin_images(
    cloud: PointCloud,
    axis_mode: str = GLOBAL_Z,
    support_radius: Optional[float] = None,
) -> List[SpinImage]:
    """Spin images at every point, about BLOCK_PAIRS (query, point) pairs
    per array pass."""
    support_radius = _check_radius(cloud, support_radius)
    pts = cloud.points
    n = len(cloud)
    block = max(1, BLOCK_PAIRS // n)
    voter = _BlockVoter(pts, support_radius, block)
    grids = np.empty((n, SPIN_ROWS, SPIN_COLS))
    for start in range(0, n, block):
        idx = np.arange(start, min(start + block, n))
        grids[start : start + block] = voter.grids(idx, _spin_axes(pts, idx, axis_mode))
    return [SpinImage(g, support_radius) for g in grids]


# ---------------------------------------------------------------------------
# PCA codebooks
# ---------------------------------------------------------------------------


def _extract_patches(grid: np.ndarray) -> np.ndarray:
    """All 11x11 patches centered at each pixel, zero-padded borders;
    returns (rows*cols, 121)."""
    half = PATCH_SIZE // 2
    padded = np.pad(grid, half)
    windows = np.lib.stride_tricks.sliding_window_view(padded, (PATCH_SIZE, PATCH_SIZE))
    return windows.reshape(-1, PATCH_SIZE * PATCH_SIZE)


def train_codebook(images: Sequence[SpinImage], kind: str = WHOLE_IMAGE) -> Codebook:
    """PCA of training descriptors, keeping the top 30 eigenvectors.

    whole-image: one 496-d sample per spin image. patch-11x11: one 121-d
    sample per pixel patch of every image.
    """
    if len(images) <= CODE_COUNT:
        raise ValueError(
            f"need more than {CODE_COUNT} training images, got {len(images)}"
        )
    if kind == WHOLE_IMAGE:
        data = np.stack([img.vector() for img in images])
    elif kind == PATCH_11X11:
        data = np.vstack([_extract_patches(img.grid) for img in images])
    else:
        raise ValueError(f"unknown codebook kind {kind!r}")
    mean = data.mean(axis=0)
    centered = data - mean
    cov = centered.T @ centered / data.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    basis = eigvecs[:, order[:CODE_COUNT]].T
    return Codebook(kind=kind, mean=mean, basis=basis, eigenvalues=eigvals)


def encode(img: SpinImage, cb: Codebook) -> PointCode:
    """Project the descriptor on the codebook basis.

    whole-image: 30 projection coefficients of the image vector. patch: the
    per-patch coefficient vectors mean-pooled over all pixels.
    """
    if cb.kind == WHOLE_IMAGE:
        vec = img.vector()
        if vec.shape[0] != cb.dims:
            raise ValueError(f"codebook dims {cb.dims} do not match image {vec.shape[0]}")
        return PointCode(cb.basis @ (vec - cb.mean))
    patches = _extract_patches(img.grid)
    if patches.shape[1] != cb.dims:
        raise ValueError(f"codebook dims {cb.dims} do not match patches {patches.shape[1]}")
    coeffs = (patches - cb.mean) @ cb.basis.T
    return PointCode(coeffs.mean(axis=0))


def encode_all(images: Sequence[SpinImage], cb: Codebook) -> List[PointCode]:
    return [encode(img, cb) for img in images]


# ---------------------------------------------------------------------------
# Part clustering
# ---------------------------------------------------------------------------


def cluster_parts(codes: Sequence[PointCode], k: int, seed: int = 0) -> PartLabeling:
    """Seeded k-means (k-means++ init) over point codes; at most 100
    iterations, stops when assignments no longer change."""
    x = np.stack([c.coeffs for c in codes])
    n = x.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_plusplus(x, k, rng)

    labels = np.full(n, -1, dtype=np.int64)
    history = []
    for _ in range(100):
        d2 = np.square(x[:, None, :] - centers[None, :, :]).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = x[labels == j]
            if members.shape[0] > 0:
                centers[j] = members.mean(axis=0)
    return PartLabeling(labels=labels, k=k, centers=centers, inertia_history=tuple(history))


def _kmeans_plusplus(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(0, n)]
    d2 = np.square(x - centers[0]).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centers[j:] = centers[0]
            break
        centers[j] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.square(x - centers[j]).sum(axis=1))
    return centers


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def save_codebook(cb: Codebook, path) -> None:
    """Header line (kind, dims, count), then the mean and each eigenvector
    as CSV rows."""
    with open(path, "w") as fh:
        fh.write(f"{cb.kind},{cb.dims},{cb.basis.shape[0]}\n")
        fh.write(",".join(f"{v:.17g}" for v in cb.mean) + "\n")
        for row in cb.basis:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def load_codebook(path) -> Codebook:
    """Read a `save_codebook` file; a malformed header or row raises
    `ParseError` naming the file and the line."""
    with open(path, "r") as fh:
        lines = fh.read().splitlines()
    if len(lines) < 2:
        raise ParseError(path, 1, "not a codebook file")
    try:
        kind, dims_s, count_s = lines[0].split(",")
        dims, count = int(dims_s), int(count_s)
    except ValueError:
        raise ParseError(path, 1, f"expected header kind,dims,count, got {lines[0]!r}") from None
    if kind not in (WHOLE_IMAGE, PATCH_11X11):
        raise ParseError(path, 1, f"unknown codebook kind {kind!r}")
    if len(lines) != 2 + count:
        raise ParseError(path, 1, f"header promises {count} basis rows, file has {len(lines) - 2}")
    rows = []
    for line_no, line in enumerate(lines[1:], start=2):
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError as exc:
            raise ParseError(path, line_no, str(exc)) from None
        if len(rows[-1]) != dims:
            raise ParseError(path, line_no, f"expected {dims} values, got {len(rows[-1])}")
    return Codebook(kind=kind, mean=np.array(rows[0]), basis=np.array(rows[1:]))


def write_spin_pgm(img: SpinImage, path) -> None:
    """ASCII PGM for visual inspection; brightest pixel = highest density,
    row 0 = top of the beta range."""
    peak = float(img.grid.max())
    scaled = np.zeros_like(img.grid, dtype=np.int64) if peak == 0 else np.rint(
        img.grid / peak * 255
    ).astype(np.int64)
    flipped = scaled[::-1]  # beta increases upward
    with open(path, "w") as fh:
        fh.write(f"P2\n{SPIN_COLS} {SPIN_ROWS}\n255\n")
        for row in flipped:
            fh.write(" ".join(str(v) for v in row) + "\n")
