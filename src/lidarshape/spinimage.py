"""Spin images, PCA codebooks, point encoding, and part clustering.

A spin image bins a point's neighborhood by radial distance from the
vertical axis through it (alpha, 16 columns over [0, R]) and signed height
along it (beta, 31 rows over [-R, R]), with bilinear vote splitting. A
cloud's images are one (n, 31, 16) float64 stack, each grid of unit mass or,
with no neighbor within R, all zero. At a fixed R they are invariant to
planar and vertical translation and rotation about z, how upright street
objects move. The default R, half the axis-aligned bounding-box diagonal,
is not: a rotation about z changes the box.

All images are voted by one kernel over blocks of query points: each block
holds about BLOCK_PAIRS (query, point) pairs, computes their offsets once,
gives the pairs outside the radius (and each query's own entry) weight 0.0,
and accumulates the four bilinear shares of every pair with one bincount.
The result is bit for bit what a per-point loop with `np.add.at` gives:
beta is dz and alpha is sqrt(dx^2 + dy^2), which is exactly rel @ e_z and
|rel - beta e_z| in floating point, not only in value. `spin_image_at` runs
the same kernel on a block of one point.

Codebooks compress descriptors to 30 PCA coefficients, either over whole
31x16 images (the default; most robust) or over 11x11 pixel patches (finer
but noise-sensitive). Points are grouped into parts by k-means over their
codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ParseError, PointCloud, cloud_diameter, one_blas_thread, write_pgm, write_table

SPIN_ROWS = 31  # beta axis, [-R, R]
SPIN_COLS = 16  # alpha axis, [0, R]
SPIN_CELLS = SPIN_ROWS * SPIN_COLS
BLOCK_PAIRS = 2**14  # (query, point) pairs per spin-image array pass
CODE_COUNT = 30
PATCH_SIZE = 11
WHOLE_IMAGE = "whole-image"
PATCH_11X11 = "patch-11x11"
DESCRIPTOR_DIMS = {WHOLE_IMAGE: SPIN_CELLS, PATCH_11X11: PATCH_SIZE * PATCH_SIZE}


@dataclass(frozen=True)
class Codebook:
    """Orthonormal PCA basis (30 x dims) with the training mean.

    eigenvalues holds the full descending spectrum when the codebook was
    trained in-process; it is absent after loading from file. An unknown
    kind, dims other than the kind's descriptor size, or other shapes raise.
    """

    kind: str
    mean: np.ndarray
    basis: np.ndarray
    eigenvalues: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in DESCRIPTOR_DIMS:
            raise ValueError(f"unknown codebook kind {self.kind!r}")
        dims, want = self.basis.shape[-1], DESCRIPTOR_DIMS[self.kind]
        if dims != want:
            raise ValueError(f"codebook dims {dims} do not match {self.kind} descriptors {want}")
        if self.basis.shape != (CODE_COUNT, dims) or self.mean.shape != (dims,):
            raise ValueError(f"codebook needs a ({CODE_COUNT}, {dims}) basis and a ({dims},) mean")

    @property
    def dims(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class PartLabeling:
    labels: np.ndarray
    inertia_history: tuple


def default_support_radius(cloud: PointCloud) -> float:
    """Half the cloud's `cloud_diameter`, so a diameter outside its window raises."""
    return 0.5 * cloud_diameter(cloud.points)


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

    def __init__(self, cloud: PointCloud, support_radius: Optional[float], block: int):
        if support_radius is None:
            support_radius = default_support_radius(cloud)
        if not support_radius > 0:
            raise ValueError(f"support_radius must be positive, got {support_radius}")
        n = len(cloud)
        self.xyz = np.ascontiguousarray(cloud.points.T)
        self.radius = support_radius
        self.base = (np.arange(block) * SPIN_CELLS)[:, None]
        self.real = np.empty((7, block, n))
        self.ints = np.empty((4, block, n), dtype=np.int64)
        self.masks = np.empty((2, block, n), dtype=bool)
        self.keys = np.empty(4 * block * n, dtype=np.int64)
        self.weights = np.empty(4 * block * n)

    def grids(self, idx: np.ndarray) -> np.ndarray:
        """Normalized (b, 31, 16) grids of the queries `idx`."""
        b, n = idx.shape[0], self.xyz.shape[1]
        dx, dy, dz, u, v, tmp, wv0 = (a[:b] for a in self.real)
        col0, col1, row0, row1 = (a[:b] for a in self.ints)
        keep, drop = (a[:b] for a in self.masks)
        keys = self.keys[: 4 * b * n].reshape(4, b, n)
        weights = self.weights[: 4 * b * n].reshape(4, b, n)
        radius = self.radius

        # coordinates far apart may overflow to inf; such pairs lie outside
        # the radius and are masked out below
        with np.errstate(over="ignore"):
            for c, d in zip(self.xyz, (dx, dy, dz)):
                np.subtract(c[None, :], c[idx, None], out=d)
            # |rel| summed as np.linalg.norm sums it: (dx^2 + dy^2) + dz^2
            np.multiply(dx, dx, out=u)
            u += np.multiply(dy, dy, out=tmp)
            np.add(u, np.multiply(dz, dz, out=tmp), out=tmp)
            np.less_equal(np.sqrt(tmp, out=tmp), radius, out=keep)
            # alpha = sqrt(dx^2 + dy^2) and beta = dz: exactly |rel - beta e_z|
            # and rel @ e_z for the +z axis
            np.sqrt(u, out=u)
            # u = alpha / col_w - 0.5, v = (beta + R) / row_h - 0.5
            u /= radius / SPIN_COLS
            u -= 0.5
            np.add(dz, radius, out=v)
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

        # one pairwise sum per contiguous 31x16 grid, as grid.sum() adds it
        mass = grids.reshape(b, SPIN_CELLS).sum(axis=1)[:, None, None]
        grids = grids.reshape(b, SPIN_ROWS, SPIN_COLS)
        return np.divide(grids, mass, out=grids, where=mass > 0)


def spin_image_at(
    cloud: PointCloud, index: int, support_radius: Optional[float] = None
) -> np.ndarray:
    """(31, 16) spin image at one point: the same kernel as `spin_images` on
    a one-query block, so one image of a large cloud costs O(n)."""
    idx = np.array([range(len(cloud))[index]])  # wraps negative, rejects out-of-range
    return _BlockVoter(cloud, support_radius, 1).grids(idx)[0]


def spin_images(cloud: PointCloud, support_radius: Optional[float] = None) -> np.ndarray:
    """Spin images at every point as one (n, 31, 16) stack, about
    BLOCK_PAIRS (query, point) pairs per array pass."""
    n = len(cloud)
    block = max(1, BLOCK_PAIRS // n)
    voter = _BlockVoter(cloud, support_radius, block)
    grids = np.empty((n, SPIN_ROWS, SPIN_COLS))
    for start in range(0, n, block):
        grids[start : start + block] = voter.grids(np.arange(start, min(start + block, n)))
    return grids


# ---------------------------------------------------------------------------
# PCA codebooks
# ---------------------------------------------------------------------------


def _extract_patches(grids: np.ndarray) -> np.ndarray:
    """All 11x11 patches centered at each pixel of each (31, 16) grid of the
    stack, zero-padded borders; returns (images*rows*cols, 121), image by
    image in row-major pixel order."""
    half = PATCH_SIZE // 2
    padded = np.pad(grids, ((0, 0), (half, half), (half, half)))
    windows = np.lib.stride_tricks.sliding_window_view(padded, (PATCH_SIZE,) * 2, axis=(1, 2))
    return windows.reshape(-1, PATCH_SIZE * PATCH_SIZE)


def train_codebook(images: np.ndarray, kind: str = WHOLE_IMAGE) -> Codebook:
    """PCA of training descriptors of an (n, 31, 16) image stack, keeping
    the top 30 eigenvectors.

    whole-image: one 496-d sample per spin image. patch-11x11: one 121-d
    sample per pixel patch of every image. The covariance and its eigensolve
    run on one BLAS thread, so the basis bits do not depend on the thread
    count.
    """
    if len(images) <= CODE_COUNT:
        raise ValueError(f"need more than {CODE_COUNT} training images, got {len(images)}")
    if kind == WHOLE_IMAGE:
        data = images.reshape(len(images), SPIN_CELLS)
    elif kind == PATCH_11X11:
        data = _extract_patches(images)
    else:
        raise ValueError(f"unknown codebook kind {kind!r}")
    mean = data.mean(axis=0)
    centered = data - mean
    with one_blas_thread():
        cov = centered.T @ centered / data.shape[0]
        eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    basis = eigvecs[:, order[:CODE_COUNT]].T
    return Codebook(kind=kind, mean=mean, basis=basis, eigenvalues=eigvals[order])


def encode_all(images: np.ndarray, cb: Codebook) -> np.ndarray:
    """Project each image of an (n, 31, 16) stack on the codebook basis;
    returns (n, 30).

    whole-image: 30 projection coefficients of the image vector, one
    matrix-vector product per image (a plain matrix product rounds
    differently). patch: the per-patch coefficient vectors mean-pooled over
    all pixels of the image.
    """
    if cb.kind == WHOLE_IMAGE:
        centered = images.reshape(len(images), SPIN_CELLS) - cb.mean
        return (cb.basis @ centered[:, :, None])[:, :, 0]
    # one image at a time: the patches of one image take 480 KB
    pooled = [((_extract_patches(g[None]) - cb.mean) @ cb.basis.T).mean(axis=0) for g in images]
    return np.stack(pooled)


# ---------------------------------------------------------------------------
# Part clustering
# ---------------------------------------------------------------------------


def cluster_parts(codes: np.ndarray, k: int, seed: int = 0) -> PartLabeling:
    """Seeded k-means (k-means++ init) over the (n, d) point codes; at most
    100 iterations, stops when assignments no longer change."""
    n = codes.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_plusplus(codes, k, rng)

    labels = np.full(n, -1, dtype=np.int64)
    history = []
    for _ in range(100):
        d2 = np.square(codes[:, None, :] - centers[None, :, :]).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        history.append(float(d2[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = codes[labels == j]
            if members.shape[0] > 0:
                centers[j] = members.mean(axis=0)
    return PartLabeling(labels=labels, inertia_history=tuple(history))


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
    header = f"{cb.kind},{cb.dims},{cb.basis.shape[0]}\n"
    rows = [cb.mean.tolist(), *cb.basis.tolist()]  # one block: CODE_COUNT + 1 rows
    write_table(path, header, ",".join(["%.17g"] * cb.dims) + "\n", rows)


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
    try:  # the header's kind and dims must agree
        return Codebook(kind=kind, mean=np.array(rows[0]), basis=np.array(rows[1:]))
    except ValueError as exc:
        raise ParseError(path, 1, str(exc)) from None


def write_spin_pgm(grid: np.ndarray, path) -> None:
    """ASCII PGM of one (31, 16) spin image for visual inspection; brightest
    pixel = highest density, row 0 = top of the beta range."""
    peak = float(grid.max())
    scaled = np.zeros(grid.shape, np.int64) if peak == 0 else np.rint(grid / peak * 255)
    write_pgm(path, scaled.astype(np.int64)[::-1])  # beta increases upward
