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
same edge vectors, cross product and norms. They measure their tuple table
`VOTE_BLOCK` rows at a time, so a call's temporaries stay one block in size
whatever the sample budget (at most `MAX_SAMPLE_BUDGET`). HSD's Gaussian
votes are quantized; `_gaussian_bin_mass` states how, and its error bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import Histogram1D, PointCloud
from .octree import OctreeNode, nodes_at_level

KINDS = ("D2", "A3", "T3", "R3")
ARITY = {"D2": 2, "A3": 3, "R3": 3, "T3": 4}
# tuples measured at once by `moment_votes` and `exact_sd`: bounds a call's temporaries
VOTE_BLOCK = 8192
# the largest sample budget: a T3 tuple table of 10**7 rows takes 320 MB
MAX_SAMPLE_BUDGET = 10**7
CDF_GRID = 4096  # grid points of the weighted sampler's lookup table, a power of two


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
    """Loose analytic upper bounds per measurement for a given diameter, so
    histogram mass never clamps for real clouds."""
    d = max(float(diameter), 1e-12)
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


def measure_many(
    kind: str, parts: Sequence[np.ndarray], gradients: bool = False
) -> Tuple[np.ndarray, Optional[List[np.ndarray]]]:
    """Measurement over aligned (N, 3) arrays, one per tuple slot, and with
    `gradients` the per-slot gradient magnitudes, both from one set of
    intermediates (edge vectors, cross product, edge norms, semiperimeter).

    Degenerate configurations (coincident points, collinear triangles,
    coplanar tetrahedra) leave NaN/inf magnitudes; `moment_votes` takes
    central differences for those rows.
    """
    arity = _check_kind(kind)
    if len(parts) != arity:
        raise ValueError(f"{kind} takes {arity} point arrays, got {len(parts)}")
    u = parts[1] - parts[0]
    if kind == "D2":
        d = np.linalg.norm(u, axis=1)
        if not gradients:
            return d, None
        g = np.where(d > 0, 1.0, np.nan)
        return d, [g, g]
    v = parts[2] - parts[0]
    if kind == "T3":
        w = parts[3] - parts[0]
        vw = np.cross(v, w)
        det = np.einsum("ij,ij->i", u, vw)
        values = np.abs(det) / 6.0
        if not gradients:
            return values, None
        g1, g2, g3 = vw / 6.0, np.cross(w, u) / 6.0, np.cross(u, v) / 6.0
        grads = (-(g1 + g2 + g3), g1, g2, g3)
        # the volume gradient is undefined only where the determinant vanishes
        return values, [np.where(det == 0, np.nan, np.linalg.norm(g, axis=1)) for g in grads]
    uv = np.cross(u, v)
    if kind == "A3":
        values = 0.5 * np.linalg.norm(uv, axis=1)
        if not gradients:
            return values, None
        # |grad at a vertex| = half the opposite side length
        mags = [np.linalg.norm(e, axis=1) for e in (parts[2] - parts[1], v, u)]
        return values, [0.5 * m for m in mags]
    # R3 = area / semiperimeter; quotient rule on analytic area and edge grads
    e = parts[2] - parts[1]
    wnorm, a, b, c = (np.linalg.norm(x, axis=1) for x in (uv, u, v, e))
    s = 0.5 * (a + b + c)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 0.5 * wnorm / s
        values = np.where(s > 0, r, 0.0)
        if not gradients:
            return values, None
        grad_a1 = np.cross(v, uv) / (2.0 * wnorm)[:, None]
        grad_a2 = np.cross(uv, u) / (2.0 * wnorm)[:, None]
        grad_a0 = -(grad_a1 + grad_a2)
        uhat, vhat, what = u / a[:, None], v / b[:, None], e / c[:, None]
        grad_s = (-0.5 * (uhat + vhat), 0.5 * (uhat - what), 0.5 * (vhat + what))
        mags = [
            np.linalg.norm((ga - r[:, None] * gs) / s[:, None], axis=1)
            for ga, gs in zip((grad_a0, grad_a1, grad_a2), grad_s)
        ]
    return values, mags


def _central_difference_mags(kind: str, tuple_pts: np.ndarray) -> np.ndarray:
    """Numeric gradient magnitudes (R, arity) of R degenerate tuples
    (R, arity, 3): every +-h step of every row goes through one kernel call.
    Each magnitude is the 1-D norm (a dot product) of its own 3-vector; a
    batched `axis` norm rounds differently."""
    rows, arity = tuple_pts.shape[:2]
    h = 1e-6 * np.maximum(1.0, np.abs(tuple_pts).max(axis=(1, 2)))
    moved = np.broadcast_to(tuple_pts, (2, 3 * arity) + tuple_pts.shape).copy()
    step = np.arange(3 * arity)
    slot, axis = np.divmod(step, 3)
    moved[0, step, :, slot, axis] += h
    moved[1, step, :, slot, axis] -= h
    flat = moved.reshape(-1, arity, 3)
    m = measure_many(kind, [flat[:, i] for i in range(arity)])[0].reshape(2, arity, 3, rows)
    grad = ((m[0] - m[1]) / (2.0 * h)).transpose(2, 0, 1)
    return np.array([[np.linalg.norm(g) for g in row] for row in grad])


def moment_votes(
    kind: str, positions: np.ndarray, scatters: np.ndarray, idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Gaussian vote moments for rep tuples `idx` (N, arity) into `positions`.

    mu is the measurement at the rep positions; sigma2 propagates each rep's
    isotropic scatter through the measurement gradient (delta method). Rows
    whose analytic gradient is undefined (coincident or collinear reps) take
    central differences instead, and terms that stay non-finite are dropped.
    Rows are measured `VOTE_BLOCK` at a time; every step is per row, so the
    block size does not change the result.
    """
    arity = _check_kind(kind)
    mu = np.empty(idx.shape[0])
    sigma2 = np.zeros(idx.shape[0])
    for start in range(0, idx.shape[0], VOTE_BLOCK):
        block = idx[start : start + VOTE_BLOCK]
        parts = [positions[block[:, i]] for i in range(arity)]
        mu[start : start + VOTE_BLOCK], mags = measure_many(kind, parts, gradients=True)
        s2 = sigma2[start : start + VOTE_BLOCK]
        bad = np.zeros(block.shape[0], dtype=bool)
        for slot, g in enumerate(mags):
            s2 += scatters[block[:, slot]] * np.square(g)
            bad |= ~np.isfinite(g)
        rows = np.flatnonzero(bad)
        if rows.size:
            cd = _central_difference_mags(kind, np.stack([p[rows] for p in parts], axis=1))
            terms = np.where(np.isfinite(cd), scatters[block[rows]] * cd * cd, 0.0)
            # numpy adds fewer than 8 terms left to right, in slot order
            s2[rows] = terms.sum(axis=1)
    return mu, sigma2


# ---------------------------------------------------------------------------
# Gaussian histogram voting
# ---------------------------------------------------------------------------


# classes per octave, cells per sigma, window in sigmas, largest |class| (2**+-1000 widths)
SIGMA_CLASSES, MEAN_CELLS, WINDOW, MAX_CLASS = 8, 16, 8.0, 8000


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
    8 sigma_k from it share one point-mass kernel. The cells reach one range
    past each end, so means out of range keep their place (farther ones move
    to the ends), and windows of 8 sigma_k, capped at 2 B bins, cover the
    range from any cell. Weights are summed per (class, cell) by `bincount`;
    `ndtr` runs once per class and occupied cell offset with F := 0 / 1 at
    the window ends, so each cell's mass telescopes to its weight, and a
    chunk of cells is deposited at a time. Per unit weight, a vote's L1 to
    its own windowed Gaussian is at most 2 TV(N(0, 1), N(0, 2^(1/8))) +
    2 TV(N(0, 1), N(1/32, 1)) = 0.067.
    """
    from scipy.special import ndtr  # deferred: only HSD voting needs it

    bins = edges.shape[0] - 1
    lo = float(edges[0])
    width = (float(edges[-1]) - lo) / bins
    point = sigma <= 0
    center = np.clip((mu[point] - lo) / width, 0, bins - 1).astype(np.int64)
    out = np.bincount(center, weight[point], minlength=bins).astype(np.float64)
    smooth = np.flatnonzero(sigma > 0)
    cls = np.floor(SIGMA_CLASSES * np.log2(sigma[smooth] / width))
    cls = np.clip(cls, -MAX_CLASS, MAX_CLASS).astype(np.int16)
    order = np.argsort(cls, kind="stable")
    classes, first = np.unique(cls[order], return_index=True)
    for k, members in zip(classes.tolist(), np.split(smooth[order], first[1:])):
        s = 2.0 ** ((k + 0.5) / SIGMA_CLASSES)  # sigma_k in bins
        cells = max(MEAN_CELLS, math.ceil(MEAN_CELLS / s))
        half = min(math.ceil(WINDOW * s), 2 * bins)
        reach = min(math.ceil(cells / 2), math.ceil(WINDOW * s * cells) + 1)  # cells per side
        edge = np.rint(np.clip((mu[members] - lo) / width, -bins, 2 * bins))  # on the padded grid
        # from the edge's own value, so which side of it a mean lies on is exact
        cell = np.floor((mu[members] - (lo + edge * width)) / width * cells)
        cell = (np.clip(cell, -reach, reach - 1) + reach + (edge + bins) * (2 * reach)).astype(int)
        grid = np.bincount(cell, weight[members], minlength=(3 * bins + 1) * 2 * reach)
        occupied = np.flatnonzero(grid)
        edge_of, offset = np.divmod(occupied, 2 * reach)
        offset, row = np.unique(offset, return_inverse=True)
        cols = np.arange(-half - 1, half + 1)  # bins from a cell's edge
        cdf = ndtr((np.append(cols, half + 1) - (offset[:, None] - reach + 0.5) / cells) / s)
        cdf[:, 0], cdf[:, -1] = 0.0, 1.0
        kernel, w = np.diff(cdf, axis=1), grid[occupied]
        rows = max(1, 16384 // cols.size)  # cells deposited at once
        for begin in range(0, w.size, rows):
            sl = slice(begin, begin + rows)
            bin_idx = np.clip(edge_of[sl, None] - bins + cols, 0, bins - 1).ravel()
            out += np.bincount(bin_idx, (kernel[row[sl]] * w[sl, None]).ravel(), minlength=bins)
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
    duplicate entries are redrawn. A weighted draw in a `CDF_GRID` cell
    without a CDF step takes the index at the cell's grid point; only the
    rest search `cum`, so every index is `searchsorted(cum, u, "right")`."""
    if p is not None:
        cum = np.cumsum(p)
        at_grid = np.searchsorted(cum, np.arange(CDF_GRID + 1) / CDF_GRID, side="right")
        settled = at_grid[:-1] == at_grid[1:]
    out = np.empty((budget, r), dtype=np.int64)
    filled = 0
    while filled < budget:
        want = budget - filled
        if p is None:
            cand = rng.integers(0, n, size=(want, r))
        else:
            u = rng.random(size=(want, r))
            u *= CDF_GRID  # exact: a power of two
            cand = u.astype(np.int64)
            slow = ~settled[cand]
            u = u[slow] / CDF_GRID  # rebinding frees the whole-budget draws
            cand = at_grid[cand]
            cand[slow] = np.searchsorted(cum, u, side="right")
            np.clip(cand, 0, n - 1, out=cand)
        if r > 1:
            good = np.ones(want, dtype=bool)
            for i in range(r):
                for j in range(i + 1, r):
                    good &= cand[:, i] != cand[:, j]
            cand = cand[good]
        out[filled : filled + cand.shape[0]] = cand
        filled += cand.shape[0]
    return out


def _tuple_table(
    n: int, arity: int, cfg: SDConfig, p: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, bool]:
    """The tuples a feature measures and whether they are all of them: every
    arity-subset of range(n) when their count fits the budget, otherwise
    `sample_budget` seeded draws (weighted by `p` when given)."""
    if math.comb(n, arity) <= cfg.sample_budget:
        return _all_combinations(n, arity), True
    rng = np.random.default_rng(cfg.seed)
    return _sample_tuples(n, arity, cfg.sample_budget, rng, p=p), False


def _resolve_range(cfg: SDConfig, kind: str, diameter: float) -> Tuple[float, float]:
    if cfg.lo is not None:
        return cfg.lo, cfg.hi
    return sd_ranges(diameter)[kind]


def exact_sd(cloud: PointCloud, kind: str, cfg: SDConfig = SDConfig()) -> SDFeature:
    """Shape distribution from point tuples: exhaustive when the tuple count
    fits the budget, seeded uniform sampling otherwise. Tuples are measured
    one `VOTE_BLOCK` at a time into integer bin counts."""
    arity = _check_kind(kind)
    n = len(cloud)
    if n < arity:
        raise ValueError(f"{kind} needs at least {arity} points, cloud has {n}")
    lo, hi = _resolve_range(cfg, kind, cloud.bbox_diagonal())
    idx, _ = _tuple_table(n, arity, cfg)
    counts = np.zeros(cfg.bins, dtype=np.int64)
    for start in range(0, idx.shape[0], VOTE_BLOCK):
        block = idx[start : start + VOTE_BLOCK]
        values, _ = measure_many(kind, [cloud.points[block[:, i]] for i in range(arity)])
        counts += np.bincount(Histogram1D.bin_indices(values, lo, hi, cfg.bins), minlength=cfg.bins)
    hist = Histogram1D(lo, hi, counts.astype(np.float64)).normalized()
    return SDFeature(kind, hist)


def hsd(root: OctreeNode, kind: str, level: int, cfg: SDConfig = SDConfig()) -> SDFeature:
    """Hierarchical shape distribution over the representative points of one
    octree level (shallower leaves stand in for missing descendants).

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

    diam = float(np.linalg.norm(positions.max(axis=0) - positions.min(axis=0)))
    lo, hi = _resolve_range(cfg, kind, diam)

    idx, enumerated = _tuple_table(n_reps, arity, cfg, p=weights / weights.sum())
    vote_w = np.prod(weights[idx], axis=1) if enumerated else np.ones(idx.shape[0])

    mu, sigma2 = moment_votes(kind, positions, scatters, idx)
    edges = np.linspace(lo, hi, cfg.bins + 1)
    mass = _gaussian_bin_mass(edges, mu, np.sqrt(sigma2), vote_w)
    hist = Histogram1D(lo, hi, mass).normalized()
    return SDFeature(kind, hist)


def write_features_csv(features: Sequence[SDFeature], path) -> None:
    """CSV export: kind, bin_index, bin_lo, bin_hi, mass (9 significant digits)."""
    with open(path, "w") as fh:
        fh.write("kind,bin_index,bin_lo,bin_hi,mass\n")
        for feat in features:
            edges = feat.histogram.edges()
            mass = [float(f"{m:.9g}") for m in feat.histogram.mass]
            gap = float(feat.histogram.mass.sum()) - sum(mass)
            if abs(gap) > 1e-9:  # the largest bin takes up the printed masses' rounding
                top = mass.index(max(mass))
                mass[top] = float(f"{mass[top] + gap:.9g}")
            for i, m in enumerate(mass):
                fh.write(f"{feat.kind},{i},{edges[i]:.9g},{edges[i + 1]:.9g},{m:.9g}\n")
