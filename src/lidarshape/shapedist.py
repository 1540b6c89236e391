"""Shape distribution features: exact enumeration and octree-accelerated HSD.

Four measurements over point tuples, each histogrammed into a descriptor:

- D2: distance between two points
- A3: area of the triangle spanned by three points
- R3: inradius of the triangle spanned by three points
- T3: volume of the tetrahedron spanned by four points

`exact_sd` enumerates every tuple when the count fits the sample budget and
falls back to seeded uniform sampling otherwise. `hsd` replaces points with
the octree's weighted representatives: each rep tuple contributes a Gaussian
vote whose mean is the measurement at the rep positions and whose variance
comes from first-order propagation of the reps' isotropic scatter, so one
vote stands in for `prod(weights)` point tuples.

Both paths measure through one per-kind kernel, `measure_many`, which
returns the values and, for HSD, the per-slot gradient magnitudes from the
same edge vectors, cross product and norms of (3, B) coordinate rows. They
draw and measure `VOTE_BLOCK` tuples at a time, so a call's temporaries stay
one block in size whatever the sample budget (at most `MAX_SAMPLE_BUDGET`).
HSD's Gaussian votes are quantized; `_gaussian_bin_mass` states how, and its
error bound. Each (sigma class, bins) kernel is built once per process and
kept in a bounded read-only table, `_class_kernel`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import Histogram1D, PointCloud, cloud_diameter, write_table
from .octree import OctreeNode, nodes_at_level

KINDS = ("D2", "A3", "T3", "R3")
ARITY = {"D2": 2, "A3": 3, "R3": 3, "T3": 4}
# tuples measured at once by `moment_votes` and `exact_sd`: bounds a call's temporaries
VOTE_BLOCK = 8192
# the largest sample budget: a T3 tuple table of 10**7 rows takes 320 MB
MAX_SAMPLE_BUDGET = 10**7
# the most histogram bins: bounds per-bin arrays and each voting kernel's width
MAX_BINS = 1024
# the weighted sampler's lookup table has the power of two of cells at or
# above 16 per index, within these bounds (8 KB to 9 MB of table)
CDF_GRID = (4096, 2**20)
# the least chance that a weighted row's slots are all distinct: the sampler
# redraws 1 / chance rows per row it keeps
MIN_DISTINCT_CHANCE = 0.01


@dataclass(frozen=True)
class SDConfig:
    """Histogram and sampling parameters shared by exact and HSD features.

    lo/hi set a fixed histogram range; leave both None to derive the range
    from the object diameter (needed whenever histograms are compared across
    objects, fix the range from a dataset-wide diameter instead).
    """

    bins: int = 64
    lo: Optional[float] = None
    hi: Optional[float] = None
    sample_budget: int = 200_000
    seed: int = 0

    def __post_init__(self):
        if self.bins < 2:
            raise ValueError(f"bins must be >= 2, got {self.bins}")
        if self.bins > MAX_BINS:
            raise ValueError(f"bins must be at most {MAX_BINS}, got {self.bins}")
        if not 1 <= self.sample_budget <= MAX_SAMPLE_BUDGET:
            raise ValueError(
                f"sample_budget must be in 1..{MAX_SAMPLE_BUDGET}, got {self.sample_budget}"
            )
        if (self.lo is None) != (self.hi is None):
            raise ValueError("fixed range needs both lo and hi")

    def fixed(self, lo: float, hi: float) -> "SDConfig":
        return SDConfig(self.bins, lo, hi, self.sample_budget, self.seed)


@dataclass(frozen=True)
class SDFeature:
    kind: str
    histogram: Histogram1D


def sd_ranges(diameter: float) -> Dict[str, Tuple[float, float]]:
    """Loose analytic upper bounds per measurement for a diameter from
    `core.cloud_diameter`, so histogram mass never clamps for real clouds. A
    zero diameter (all points equal) takes 1e-12."""
    d = float(diameter) or 1e-12
    return {
        "D2": (0.0, d),
        "A3": (0.0, d * d * math.sqrt(3.0) / 4.0),
        "T3": (0.0, d ** 3 / 8.0),
        "R3": (0.0, d / (2.0 * math.sqrt(3.0))),
    }


# ---------------------------------------------------------------------------
# The measurement kernel
# ---------------------------------------------------------------------------


def _check_kind(kind: str) -> int:
    if kind not in ARITY:
        raise ValueError(f"unknown feature kind {kind!r}; expected one of {KINDS}")
    return ARITY[kind]


def _norm(a: np.ndarray) -> np.ndarray:
    """Column norms of (3, B) rows, summed as `np.linalg.norm(axis=1)` sums (N, 3)."""
    return np.sqrt((a[0] * a[0] + a[1] * a[1]) + a[2] * a[2])


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column cross products of (3, B) rows, by `np.cross`'s component formulas."""
    x, y, z = a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]
    return np.stack((x, y, z))


def measure_many(
    kind: str, parts: Sequence[np.ndarray], gradients: bool = False
) -> Tuple[np.ndarray, Optional[List[np.ndarray]]]:
    """Measurement over aligned (3, B) coordinate rows, one array per tuple
    slot, and with `gradients` the per-slot gradient magnitudes, both from one
    set of intermediates (edge vectors, cross product, edge norms, semiperimeter).

    Degenerate configurations (coincident points, collinear triangles,
    coplanar tetrahedra) leave NaN/inf magnitudes for D2, R3 and T3: there the
    measure has a |.| kink, so it has no gradient to propagate. A3's
    magnitudes, half the side lengths, stay finite on a collinear triangle.
    """
    arity = _check_kind(kind)
    if len(parts) != arity:
        raise ValueError(f"{kind} takes {arity} point arrays, got {len(parts)}")
    u = parts[1] - parts[0]
    if kind == "D2":
        d = _norm(u)
        if not gradients:
            return d, None
        g = np.where(d > 0, 1.0, np.nan)
        return d, [g, g]
    v = parts[2] - parts[0]
    if kind == "T3":
        w = parts[3] - parts[0]
        vw = _cross(v, w)
        # einsum orders each row's three products by the row layout: give it (B, 3) rows
        det = np.einsum("ij,ij->i", u.T.copy(), vw.T.copy())
        values = np.abs(det) / 6.0
        if not gradients:
            return values, None
        g1, g2, g3 = vw / 6.0, _cross(w, u) / 6.0, _cross(u, v) / 6.0
        grads = (-(g1 + g2 + g3), g1, g2, g3)
        # the volume gradient is undefined only where the determinant vanishes
        return values, [np.where(det == 0, np.nan, _norm(g)) for g in grads]
    uv = _cross(u, v)
    if kind == "A3":
        values = 0.5 * _norm(uv)
        if not gradients:
            return values, None
        # |grad at a vertex| = half the opposite side length
        return values, [0.5 * _norm(e) for e in (parts[2] - parts[1], v, u)]
    # R3 = area / semiperimeter; quotient rule on analytic area and edge grads
    e = parts[2] - parts[1]
    wnorm, a, b, c = (_norm(x) for x in (uv, u, v, e))
    s = 0.5 * (a + b + c)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 0.5 * wnorm / s
        values = np.where(s > 0, r, 0.0)
        if not gradients:
            return values, None
        grad_a1, grad_a2 = _cross(v, uv) / (2.0 * wnorm), _cross(uv, u) / (2.0 * wnorm)
        grad_a0 = -(grad_a1 + grad_a2)
        uhat, vhat, what = u / a, v / b, e / c
        grad_s = (-0.5 * (uhat + vhat), 0.5 * (uhat - what), 0.5 * (vhat + what))
        mags = [_norm((ga - r * gs) / s) for ga, gs in zip((grad_a0, grad_a1, grad_a2), grad_s)]
    return values, mags


def moment_votes(
    kind: str, positions: np.ndarray, scatters: np.ndarray, idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Gaussian vote moments for rep tuples `idx` (N, arity) into `positions`.

    mu is the measurement at the rep positions; sigma2 propagates each rep's
    isotropic scatter through the measurement gradient (delta method). A slot
    whose magnitude is not finite (a degenerate D2, R3 or T3 tuple) adds 0, so
    such a tuple votes a point mass at its measurement; A3's collinear votes
    keep their spread. Rows are measured `VOTE_BLOCK` at a time; every step is
    per row, so the block size does not change the result.
    """
    arity = _check_kind(kind)
    cols = np.ascontiguousarray(positions.T)
    mu, sigma2 = np.empty(idx.shape[0]), np.zeros(idx.shape[0])
    for start in range(0, idx.shape[0], VOTE_BLOCK):
        block = idx[start : start + VOTE_BLOCK]
        parts = [np.take(cols, block[:, i], axis=1) for i in range(arity)]
        mu[start : start + VOTE_BLOCK], mags = measure_many(kind, parts, gradients=True)
        s2 = sigma2[start : start + VOTE_BLOCK]
        for slot, g in enumerate(mags):
            # zeroed before squaring, so a zero scatter never meets an inf
            s2 += scatters[block[:, slot]] * np.square(np.where(np.isfinite(g), g, 0.0))
    return mu, sigma2


# ---------------------------------------------------------------------------
# Gaussian histogram voting
# ---------------------------------------------------------------------------


# classes per octave, cells per sigma, window in sigmas, largest |class| (2**+-1000 widths)
SIGMA_CLASSES, MEAN_CELLS, WINDOW, MAX_CLASS = 8, 16, 8.0, 8000
KERNEL_TABLE_SIZE = 256  # (class, bins) kernels one process keeps, least recently used out
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF as 0.5 erfc(-x / sqrt 2) from the C library's erfc,
    one Python call per value: within 2.2e-16 of scipy's `ndtr` on the tests'
    grid, without scipy's import time."""
    return 0.5 * _ERFC(x * -math.sqrt(0.5)).astype(np.float64)


@functools.lru_cache(maxsize=KERNEL_TABLE_SIZE)
def _class_kernel(k: int, bins: int) -> Tuple[int, int, np.ndarray, np.ndarray]:
    """Sigma class k's voting kernel over `bins` bins: its mean cells per bin,
    its cells per side of an edge (`reach`), its window columns (bins from a
    cell's edge) and one read-only CDF kernel row per cell offset 0..2 reach
    from the edge's first cell, shape (2 reach, cols.size).

    Nothing here depends on the votes, so one process builds each entry once
    (two threads may both build one; the results are equal). An entry holds
    8 (2 reach + 1) cols.size bytes: at most 8.4 KB below sigma_k = 1 bin
    and 8 * 17 (2 min(ceil(8 sigma_k), 2 bins) + 2) from there on, so at
    most 557 KB at `MAX_BINS` and 35 KB at the default 64 bins. Of
    `KERNEL_TABLE_SIZE` entries, that is at most 143 MB, or 9 MB at 64 bins.
    """
    s = 2.0 ** ((k + 0.5) / SIGMA_CLASSES)  # sigma_k in bins
    cells = max(MEAN_CELLS, math.ceil(MEAN_CELLS / s))
    half = min(math.ceil(WINDOW * s), 2 * bins)
    reach = min(math.ceil(cells / 2), math.ceil(WINDOW * s * cells) + 1)  # cells per side
    cols = np.arange(-half - 1, half + 1)
    offset = np.arange(2 * reach)
    cdf = _normal_cdf((np.append(cols, half + 1) - (offset[:, None] - reach + 0.5) / cells) / s)
    cdf[:, 0], cdf[:, -1] = 0.0, 1.0
    kernel = np.diff(cdf, axis=1)
    cols.setflags(write=False)
    kernel.setflags(write=False)
    return cells, reach, cols, kernel


def _gaussian_bin_mass(
    edges: np.ndarray, mu: np.ndarray, sigma: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """Total per-bin mass of weighted Gaussian votes, tails clamped to the
    boundary bins. Shapes: mu/sigma/weight (N,), edges (B+1,); returns (B,).

    Sigma = 0 votes are point masses in the bin of their mean; the others are
    quantized. Sigma goes to class floor(8 log2(sigma / width)), voted at the
    class's geometric centre sigma_k (within a factor 2^(1/16)), and the mean
    to the centre of its cell (within sigma_k / 32): max(16, ceil(16 width /
    sigma_k)) cells per bin, counted from the nearest edge, and those past
    8 sigma_k from it share one point-mass kernel. Edges reach one range past
    each end, so means out of range keep their place (farther ones move to
    the ends), and windows of 8 sigma_k, capped at 2 B bins, cover the range
    from any cell. Weights are summed per (class, cell) by `bincount` over
    the edges from the class's lowest occupied one up; each occupied cell
    reads its kernel row, F := 0 / 1 at the window ends, from the process's
    `_class_kernel` table, so each cell's mass telescopes to its weight, and
    a chunk of cells is deposited at a time. Per unit weight, a vote's L1 to
    its own windowed Gaussian is at most 2 TV(N(0, 1), N(0, 2^(1/8))) +
    2 TV(N(0, 1), N(1/32, 1)) = 0.067.
    """
    bins = edges.shape[0] - 1
    lo = float(edges[0])
    width = (float(edges[-1]) - lo) / bins
    point = sigma <= 0
    center = Histogram1D.bin_indices(mu[point], lo, float(edges[-1]), bins)
    out = np.bincount(center, weight[point], minlength=bins).astype(np.float64)
    smooth = np.flatnonzero(sigma > 0)
    cls = np.floor(SIGMA_CLASSES * np.log2(sigma[smooth] / width))
    cls = np.clip(cls, -MAX_CLASS, MAX_CLASS).astype(np.int16)
    order = np.argsort(cls, kind="stable")
    cls, smooth = cls[order], smooth[order]  # by class, in vote order within one
    edge = np.rint(np.clip((mu[smooth] - lo) / width, -bins, 2 * bins))
    # from the edge's own value, so which side of it a mean lies on is exact
    # clipped to one bin either side, which clips to the same cell (cells >= reach)
    frac = np.clip((mu[smooth] - (lo + edge * width)) / width, -1.0, 1.0)
    weight = weight[smooth]
    del order, smooth  # 16 bytes a vote the loop does not read
    starts = np.flatnonzero(np.diff(cls, prepend=cls[:1] - 1)).tolist()  # where each class begins
    for k, start, stop in zip(cls[starts].tolist(), starts, starts[1:] + [cls.size]):
        cells, reach, cols, kernel = _class_kernel(k, bins)
        first = edge[start:stop].min()
        cell = np.floor(frac[start:stop] * cells)
        cell = np.clip(cell, -reach, reach - 1) + reach + (edge[start:stop] - first) * (2 * reach)
        grid = np.bincount(cell.astype(int), weight[start:stop])
        occupied = np.flatnonzero(grid)
        edge_of, offset = np.divmod(occupied, 2 * reach)
        edge_of += int(first)
        w = grid[occupied]
        rows = max(1, 16384 // cols.size)  # cells deposited at once
        for begin in range(0, w.size, rows):
            sl = slice(begin, begin + rows)
            bin_idx = np.clip(edge_of[sl, None] + cols, 0, bins - 1).ravel()
            out += np.bincount(bin_idx, (kernel[offset[sl]] * w[sl, None]).ravel(), minlength=bins)
    return out


# ---------------------------------------------------------------------------
# Tuple enumeration / sampling
# ---------------------------------------------------------------------------


def _all_combinations(n: int, r: int) -> np.ndarray:
    """Every r-subset of range(n) as an int64 (C(n, r), r) array, rows in
    itertools.combinations order."""
    combos = np.arange(n, dtype=np.int64)[:, None]
    for _ in range(r - 1):
        # the rows that start above i are a tail of the sorted table: prefix i
        tail = np.searchsorted(combos[:, 0], np.arange(n), side="right")
        lengths = combos.shape[0] - tail
        rows = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths - tail, lengths)
        combos = np.column_stack([np.repeat(np.arange(n, dtype=np.int64), lengths), combos[rows]])
    return combos


def _sample_tuples(
    n: int, r: int, budget: int, rng: np.random.Generator, p: Optional[np.ndarray] = None
) -> np.ndarray:
    """Draw `budget` index tuples with all-distinct entries; slots are drawn
    independently (optionally weighted, via inverse-CDF lookup) and rows with
    duplicate entries are redrawn. Rows are drawn and checked `VOTE_BLOCK` at
    a time; the generator yields the same stream in blocks as at once, so the
    tuples do not depend on the block size. A weighted draw looks up its
    cell of a table of about 16 cells per index (`CDF_GRID`): in a cell
    without a CDF step it takes the index at the cell's grid point, clipped
    to n - 1; only the rest search `cum`, so every index is
    `min(searchsorted(cum, u, "right"), n - 1)`."""
    if p is not None:
        cum = np.cumsum(p)
        grid = min(max(CDF_GRID[0], 1 << (16 * n - 1).bit_length()), CDF_GRID[1])
        at_grid = np.searchsorted(cum, np.arange(grid + 1) / grid, side="right")
        np.minimum(at_grid, n - 1, out=at_grid)
        settled = at_grid[:-1] == at_grid[1:]
    out = np.empty((budget, r), dtype=np.int64)
    filled = 0
    while filled < budget:
        want = min(budget - filled, VOTE_BLOCK)
        if p is None:
            cand = rng.integers(0, n, size=(want, r))
        else:
            u = rng.random(size=(want, r))
            u *= grid  # exact: a power of two
            cell = u.astype(np.int64)
            cand = at_grid[cell]
            slow = ~settled[cell]
            # below the next grid point, so at most at_grid[cell + 1] <= n - 1
            cand[slow] = np.searchsorted(cum, u[slow] / grid, side="right")
        if r > 1:
            good = np.ones(want, dtype=bool)
            for i in range(r):
                for j in range(i + 1, r):
                    good &= cand[:, i] != cand[:, j]
            cand = cand[good]
        out[filled : filled + cand.shape[0]] = cand
        filled += cand.shape[0]
    return out


def _distinct_chance(p: np.ndarray, r: int) -> float:
    """Chance that r independent draws from `p` are all distinct: r! e_r(p),
    e_r from the power sums of `p` by Newton's identities."""
    power = (p[None, :] ** np.arange(1, r + 1)[:, None]).sum(axis=1)
    e = [1.0]
    for k in range(1, r + 1):
        e.append(sum((-1) ** (i - 1) * e[k - i] * power[i - 1] for i in range(1, k + 1)) / k)
    return math.factorial(r) * e[r]


def _tuple_table(
    n: int, kind: str, cfg: SDConfig, p: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, bool]:
    """The tuples a feature measures and whether they are all of them: every
    arity-subset of range(n) when their count fits the budget, otherwise
    `sample_budget` seeded draws (weighted by `p` when given, which raises
    when a row's draws are distinct with less than `MIN_DISTINCT_CHANCE`)."""
    arity = ARITY[kind]
    if math.comb(n, arity) <= cfg.sample_budget:
        return _all_combinations(n, arity), True
    chance = 1.0 if p is None else _distinct_chance(p, arity)
    if chance < MIN_DISTINCT_CHANCE:
        raise ValueError(
            f"{kind} draws {arity} distinct representatives with chance {chance:.2g}, "
            f"below {MIN_DISTINCT_CHANCE:g}: one holds {p.max():.3g} of the weight"
        )
    rng = np.random.default_rng(cfg.seed)
    return _sample_tuples(n, arity, cfg.sample_budget, rng, p=p), False


def _resolve_range(cfg: SDConfig, kind: str, points: np.ndarray) -> Tuple[float, float]:
    if cfg.lo is not None:
        return cfg.lo, cfg.hi
    return sd_ranges(cloud_diameter(points))[kind]


def exact_sd(cloud: PointCloud, kind: str, cfg: SDConfig = SDConfig()) -> SDFeature:
    """Shape distribution from point tuples: exhaustive when the tuple count
    fits the budget, seeded uniform sampling otherwise. Tuples are measured
    one `VOTE_BLOCK` at a time into integer bin counts."""
    arity = _check_kind(kind)
    n = len(cloud)
    if n < arity:
        raise ValueError(f"{kind} needs at least {arity} points, cloud has {n}")
    lo, hi = _resolve_range(cfg, kind, cloud.points)
    idx, _ = _tuple_table(n, kind, cfg)
    cols = np.ascontiguousarray(cloud.points.T)
    counts = np.zeros(cfg.bins, dtype=np.int64)
    for start in range(0, idx.shape[0], VOTE_BLOCK):
        block = idx[start : start + VOTE_BLOCK]
        values, _ = measure_many(kind, [np.take(cols, block[:, i], axis=1) for i in range(arity)])
        counts += np.bincount(Histogram1D.bin_indices(values, lo, hi, cfg.bins), minlength=cfg.bins)
    hist = Histogram1D(lo, hi, counts.astype(np.float64)).normalized()
    return SDFeature(kind, hist)


def hsd(root: OctreeNode, kind: str, level: int, cfg: SDConfig = SDConfig()) -> SDFeature:
    """Hierarchical shape distribution over the representative points of one
    octree level (shallower leaves stand in for missing descendants, so a
    level deeper than the tree's `max_depth` reads its deepest level).

    Enumerates all rep tuples when they fit the budget, weighting each
    Gaussian vote by the product of rep weights; otherwise draws seeded
    samples with probability proportional to that product so unit-weight
    votes approximate the same distribution. The vote moments are computed
    one `VOTE_BLOCK` of tuples at a time, row by row, and voted afterwards,
    so the histogram does not depend on the block size.
    """
    arity = _check_kind(kind)
    if level < 1:
        raise ValueError(f"level must be >= 1, got {level}")
    reps = np.concatenate([node.reps for node in nodes_at_level(root, level)])
    n_reps = reps.shape[0]
    if n_reps < arity:
        raise ValueError(
            f"{kind} needs at least {arity} representatives, level {level} has {n_reps}"
        )
    positions = np.ascontiguousarray(reps["position"])
    weights = reps["weight"].astype(np.float64)
    scatters = np.ascontiguousarray(reps["scatter"])
    lo, hi = _resolve_range(cfg, kind, positions)

    idx, enumerated = _tuple_table(n_reps, kind, cfg, p=weights / weights.sum())
    vote_w = math.prod(weights[c] for c in idx.T) if enumerated else np.ones(idx.shape[0])

    mu, sigma2 = moment_votes(kind, positions, scatters, idx)
    edges = np.linspace(lo, hi, cfg.bins + 1)
    mass = _gaussian_bin_mass(edges, mu, np.sqrt(sigma2), vote_w)
    hist = Histogram1D(lo, hi, mass).normalized()
    return SDFeature(kind, hist)


def write_features_csv(features: Sequence[SDFeature], path) -> None:
    """CSV export: kind, bin_index, bin_lo, bin_hi, mass (9 significant digits)."""

    def rows():
        for feat in features:
            edges = feat.histogram.edges().tolist()
            mass = [float(f"{m:.9g}") for m in feat.histogram.mass]
            gap = float(feat.histogram.mass.sum()) - sum(mass)
            if abs(gap) > 1e-9:  # the largest bin takes up the printed masses' rounding
                top = mass.index(max(mass))
                mass[top] = float(f"{mass[top] + gap:.9g}")
            yield from ((feat.kind, i, edges[i], edges[i + 1], m) for i, m in enumerate(mass))

    write_table(path, "kind,bin_index,bin_lo,bin_hi,mass\n", "%s,%d,%.9g,%.9g,%.9g\n", rows())
