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
        if self.sample_budget < 1:
            raise ValueError(f"sample_budget must be >= 1, got {self.sample_budget}")
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
# Measurements and their gradients
# ---------------------------------------------------------------------------


def _check_kind(kind: str) -> int:
    if kind not in ARITY:
        raise ValueError(f"unknown feature kind {kind!r}; expected one of {KINDS}")
    return ARITY[kind]


def measure(kind: str, pts: Sequence) -> float:
    """Single-tuple measurement; `pts` must hold exactly arity(kind) points."""
    arity = _check_kind(kind)
    pts = np.asarray(pts, dtype=np.float64)
    if pts.shape != (arity, 3):
        raise ValueError(f"{kind} takes {arity} points, got array of shape {pts.shape}")
    parts = [pts[i][np.newaxis, :] for i in range(arity)]
    return float(measure_many(kind, parts)[0])


def measure_many(kind: str, parts: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized measurement over aligned (N, 3) arrays, one per tuple slot."""
    arity = _check_kind(kind)
    if len(parts) != arity:
        raise ValueError(f"{kind} takes {arity} point arrays, got {len(parts)}")
    if kind == "D2":
        return np.linalg.norm(parts[1] - parts[0], axis=1)
    if kind == "A3":
        u = parts[1] - parts[0]
        v = parts[2] - parts[0]
        return 0.5 * np.linalg.norm(np.cross(u, v), axis=1)
    if kind == "R3":
        a = np.linalg.norm(parts[1] - parts[0], axis=1)
        b = np.linalg.norm(parts[2] - parts[0], axis=1)
        c = np.linalg.norm(parts[2] - parts[1], axis=1)
        s = 0.5 * (a + b + c)
        area = 0.5 * np.linalg.norm(np.cross(parts[1] - parts[0], parts[2] - parts[0]), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(s > 0, area / s, 0.0)
        return r
    # T3
    u = parts[1] - parts[0]
    v = parts[2] - parts[0]
    w = parts[3] - parts[0]
    det = np.einsum("ij,ij->i", u, np.cross(v, w))
    return np.abs(det) / 6.0


def gradient_magnitudes(kind: str, parts: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Per-slot gradient magnitude of the measurement, vectorized over tuples.

    Degenerate configurations (coincident points, collinear triangles) leave
    NaN/inf entries; callers fall back to central differences for those rows.
    """
    arity = _check_kind(kind)
    if kind == "D2":
        d = np.linalg.norm(parts[1] - parts[0], axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(d > 0, 1.0, np.nan)
        return [g, g]
    if kind == "A3":
        # |grad at a vertex| = half the opposite side length
        g0 = 0.5 * np.linalg.norm(parts[2] - parts[1], axis=1)
        g1 = 0.5 * np.linalg.norm(parts[2] - parts[0], axis=1)
        g2 = 0.5 * np.linalg.norm(parts[1] - parts[0], axis=1)
        return [g0, g1, g2]
    if kind == "T3":
        u = parts[1] - parts[0]
        v = parts[2] - parts[0]
        w = parts[3] - parts[0]
        sign = np.sign(np.einsum("ij,ij->i", u, np.cross(v, w)))
        g1 = np.cross(v, w) / 6.0
        g2 = np.cross(w, u) / 6.0
        g3 = np.cross(u, v) / 6.0
        g0 = -(g1 + g2 + g3)
        mags = [np.linalg.norm(g, axis=1) for g in (g0, g1, g2, g3)]
        # volume gradient is undefined only where the determinant vanishes
        bad = sign == 0
        return [np.where(bad, np.nan, m) for m in mags]
    # R3 = area / semiperimeter; quotient rule on analytic area and edge grads
    p0, p1, p2 = parts
    u = p1 - p0
    v = p2 - p0
    wvec = np.cross(u, v)
    wnorm = np.linalg.norm(wvec, axis=1)
    a = np.linalg.norm(u, axis=1)
    b = np.linalg.norm(v, axis=1)
    c = np.linalg.norm(p2 - p1, axis=1)
    s = 0.5 * (a + b + c)
    area = 0.5 * wnorm
    with np.errstate(divide="ignore", invalid="ignore"):
        r = area / s
        grad_a1 = np.cross(v, wvec) / (2.0 * wnorm)[:, None]
        grad_a2 = np.cross(wvec, u) / (2.0 * wnorm)[:, None]
        grad_a0 = -(grad_a1 + grad_a2)
        uhat = u / a[:, None]
        vhat = v / b[:, None]
        what = (p2 - p1) / c[:, None]
        grad_s0 = -0.5 * (uhat + vhat)
        grad_s1 = 0.5 * (uhat - what)
        grad_s2 = 0.5 * (vhat + what)
        out = []
        for ga, gs in ((grad_a0, grad_s0), (grad_a1, grad_s1), (grad_a2, grad_s2)):
            grad_r = (ga - r[:, None] * gs) / s[:, None]
            out.append(np.linalg.norm(grad_r, axis=1))
    return out


def _central_difference_mags(kind: str, tuple_pts: np.ndarray) -> List[float]:
    """Numeric gradient magnitudes for one degenerate tuple."""
    arity = tuple_pts.shape[0]
    scale = max(1.0, float(np.abs(tuple_pts).max()))
    h = 1e-6 * scale
    mags = []
    for i in range(arity):
        grad = np.zeros(3)
        for axis in range(3):
            plus = tuple_pts.copy()
            minus = tuple_pts.copy()
            plus[i, axis] += h
            minus[i, axis] -= h
            grad[axis] = (measure(kind, plus) - measure(kind, minus)) / (2.0 * h)
        mags.append(float(np.linalg.norm(grad)))
    return mags


def moment_votes(
    kind: str, positions: np.ndarray, scatters: np.ndarray, idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Gaussian vote moments for rep tuples `idx` (N, arity) into `positions`.

    mu is the measurement at the rep positions; sigma2 propagates each rep's
    isotropic scatter through the measurement gradient (delta method). Rows
    whose analytic gradient is undefined (coincident or collinear reps) take
    central differences instead, and terms that stay non-finite are dropped.
    """
    arity = _check_kind(kind)
    parts = [positions[idx[:, i]] for i in range(arity)]
    mu = measure_many(kind, parts)
    mags = gradient_magnitudes(kind, parts)
    sigma2 = np.zeros(idx.shape[0])
    bad = np.zeros(idx.shape[0], dtype=bool)
    for slot, g in enumerate(mags):
        sigma2 += scatters[idx[:, slot]] * np.square(g)
        bad |= ~np.isfinite(g)
    for row in np.nonzero(bad)[0]:
        tuple_pts = np.stack([parts[i][row] for i in range(arity)])
        cd = _central_difference_mags(kind, tuple_pts)
        sigma2[row] = sum(
            scatters[idx[row, slot]] * m * m for slot, m in enumerate(cd) if math.isfinite(m)
        )
    return mu, sigma2


# ---------------------------------------------------------------------------
# Gaussian histogram voting
# ---------------------------------------------------------------------------


def _gaussian_bin_mass(
    edges: np.ndarray, mu: np.ndarray, sigma: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """Total per-bin mass of weighted Gaussian votes, tails clamped to the
    boundary bins. Shapes: mu/sigma/weight (N,), edges (B+1,); returns (B,).

    Each vote only touches the bins within 8 sigma of its mean; the CDF is
    evaluated on that window with F := 0 / 1 forced at the window ends, so
    per-vote mass telescopes to exactly `weight` (out-of-window mass is below
    1e-15 and lands in the window's edge bins).
    """
    bins = edges.shape[0] - 1
    lo = float(edges[0])
    width = (float(edges[-1]) - lo) / bins
    out = np.zeros(bins)
    sigma = np.asarray(sigma, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)

    center = np.clip(np.floor((mu - lo) / width).astype(np.int64), 0, bins - 1)
    point = sigma <= 0
    if np.any(point):
        np.add.at(out, center[point], weight[point])
    if np.all(point):
        return out

    smooth = ~point
    half = np.ceil(8.0 * sigma[smooth] / width).astype(np.int64)
    np.clip(half, 1, bins, out=half)
    c_s, mu_s, sig_s, w_s = center[smooth], mu[smooth], sigma[smooth], weight[smooth]

    bucket = 1
    while True:
        sel = half <= bucket if bucket < bins else np.ones_like(half, dtype=bool)
        sel &= half > bucket // 2
        if np.any(sel):
            _window_votes(out, lo, width, bins, bucket, c_s[sel], mu_s[sel], sig_s[sel], w_s[sel])
        if bucket >= bins:
            break
        bucket *= 2
    return out


def _window_votes(out, lo, width, bins, half, center, mu, sigma, weight, chunk=16384):
    """Accumulate votes whose support fits in `center +- half` bins."""
    from scipy.special import ndtr  # deferred: only HSD voting needs it

    edge_off = np.arange(-half, half + 2)
    bin_off = np.arange(-half, half + 1)
    rows = max(1, chunk // (2 * half + 2))
    for start in range(0, center.shape[0], rows):
        stop = start + rows
        c = center[start:stop]
        edge_idx = np.clip(c[:, None] + edge_off[None, :], 0, bins)
        z = (lo + edge_idx * width - mu[start:stop, None]) / sigma[start:stop, None]
        cdf = ndtr(z)
        cdf[:, 0] = 0.0
        cdf[:, -1] = 1.0
        mass = np.diff(cdf, axis=1) * weight[start:stop, None]
        bin_idx = np.clip(c[:, None] + bin_off[None, :], 0, bins - 1)
        np.add.at(out, bin_idx.ravel(), mass.ravel())


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
    duplicate entries are redrawn."""
    cum = None if p is None else np.cumsum(p)
    out = np.empty((budget, r), dtype=np.int64)
    filled = 0
    while filled < budget:
        want = budget - filled
        if cum is None:
            cand = rng.integers(0, n, size=(want, r))
        else:
            cand = np.searchsorted(cum, rng.random(size=(want, r)), side="right")
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


def _resolve_range(cfg: SDConfig, kind: str, diameter: float) -> Tuple[float, float]:
    if cfg.lo is not None:
        return cfg.lo, cfg.hi
    return sd_ranges(diameter)[kind]


def exact_sd(cloud: PointCloud, kind: str, cfg: SDConfig = SDConfig()) -> SDFeature:
    """Shape distribution from point tuples: exhaustive when the tuple count
    fits the budget, seeded uniform sampling otherwise."""
    arity = _check_kind(kind)
    n = len(cloud)
    if n < arity:
        raise ValueError(f"{kind} needs at least {arity} points, cloud has {n}")
    lo, hi = _resolve_range(cfg, kind, cloud.bbox_diagonal())
    total = math.comb(n, arity)
    if total <= cfg.sample_budget:
        idx = _all_combinations(n, arity)
    else:
        rng = np.random.default_rng(cfg.seed)
        idx = _sample_tuples(n, arity, cfg.sample_budget, rng)
    parts = [cloud.points[idx[:, i]] for i in range(arity)]
    values = measure_many(kind, parts)
    hist = Histogram1D.from_values(values, lo, hi, cfg.bins)
    return SDFeature(kind, hist)


def hsd(root: OctreeNode, kind: str, level: int, cfg: SDConfig = SDConfig()) -> SDFeature:
    """Hierarchical shape distribution over the representative points of one
    octree level (shallower leaves stand in for missing descendants).

    Enumerates all rep tuples when they fit the budget, weighting each
    Gaussian vote by the product of rep weights; otherwise draws seeded
    samples with probability proportional to that product so unit-weight
    votes approximate the same distribution.
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

    total = math.comb(n_reps, arity)
    if total <= cfg.sample_budget:
        idx = _all_combinations(n_reps, arity)
        vote_w = np.prod(weights[idx], axis=1)
    else:
        rng = np.random.default_rng(cfg.seed)
        p = weights / weights.sum()
        idx = _sample_tuples(n_reps, arity, cfg.sample_budget, rng, p=p)
        vote_w = np.ones(idx.shape[0])

    mu, sigma2 = moment_votes(kind, positions, scatters, idx)
    edges = np.linspace(lo, hi, cfg.bins + 1)
    mass = _gaussian_bin_mass(edges, mu, np.sqrt(sigma2), vote_w)
    hist = Histogram1D(lo, hi, mass).normalized()
    return SDFeature(kind, hist)


def histogram_l1(a: Histogram1D, b: Histogram1D) -> float:
    """L1 distance between two equal-support histograms."""
    if a.bins != b.bins or a.lo != b.lo or a.hi != b.hi:
        raise ValueError("mismatched histogram support")
    return float(np.abs(a.mass - b.mass).sum())


def write_features_csv(features: Sequence[SDFeature], path) -> None:
    """CSV export: kind, bin_index, bin_lo, bin_hi, mass."""
    with open(path, "w") as fh:
        fh.write("kind,bin_index,bin_lo,bin_hi,mass\n")
        for feat in features:
            edges = feat.histogram.edges()
            for i, m in enumerate(feat.histogram.mass):
                fh.write(f"{feat.kind},{i},{edges[i]:.9g},{edges[i + 1]:.9g},{m:.9g}\n")
