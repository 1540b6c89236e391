"""Independent reference implementations used as test oracles.

These deliberately avoid the library's own code paths: the point is to check
the closed-form implementations against brute force. The loop references
(`build_grid_cells_dict`, `tile_features_per_tile`, `refine_roi_per_tile`,
`load_xyz_line_by_line`, `spin_image_per_point`, `distance_matrix_per_pair`,
`single_linkage_scan`, `build_octree_recursive`) are the plain per-item
versions that the vectorized library code must match bit for bit, and the
one-shot shape-distribution references (`moment_votes_one_shot`,
`exact_sd_one_shot`) are the whole-budget
versions that the blocked library code must match bit for bit.
`gaussian_bin_mass_windowed` and `_window_votes` are the per-vote Gaussian
voting the library used before quantized voting: every vote evaluates the
CDF over its own window, and the quantized votes must match it within the
error bound stated in `shapedist._gaussian_bin_mass`.

`measure`, `measure_many`, `gradient_magnitudes` and
`_central_difference_mags` are the separate value, gradient and per-row
central-difference chains the library measured with before its one kernel;
the kernel must match them bit for bit. `iter_nodes` walks an octree depth
first for the tree audits.
"""

import itertools
import math
from typing import List, Sequence

import numpy as np
from scipy.optimize import linprog

from lidarshape.shapedist import _check_kind


def emd_lp(a_mass, b_mass, bin_width):
    """1-D EMD via the transportation LP: minimize sum(f_ij * |i-j| * width)
    subject to row sums a, column sums b, f >= 0."""
    a = np.asarray(a_mass, dtype=float)
    b = np.asarray(b_mass, dtype=float)
    nb = len(a)
    cost = np.abs(np.subtract.outer(np.arange(nb), np.arange(nb))).ravel() * bin_width
    a_eq = []
    for i in range(nb):  # row sums
        row = np.zeros((nb, nb))
        row[i, :] = 1.0
        a_eq.append(row.ravel())
    for j in range(nb):  # column sums
        col = np.zeros((nb, nb))
        col[:, j] = 1.0
        a_eq.append(col.ravel())
    res = linprog(cost, A_eq=np.array(a_eq), b_eq=np.concatenate([a, b]), method="highs")
    assert res.success, res.message
    return res.fun


def histogram_l1(a, b):
    """L1 distance between two equal-support histograms."""
    if a.bins != b.bins or a.lo != b.lo or a.hi != b.hi:
        raise ValueError("mismatched histogram support")
    return float(np.abs(a.mass - b.mass).sum())


def brute_force_histogram(points, kind, lo, hi, bins):
    """Shape distribution by plain nested enumeration of all tuples."""
    from lidarshape.shapedist import ARITY

    arity = ARITY[kind]
    width = (hi - lo) / bins
    mass = np.zeros(bins)
    for combo in itertools.combinations(range(len(points)), arity):
        v = measure(kind, points[list(combo)])
        idx = min(max(int(np.floor((v - lo) / width)), 0), bins - 1)
        mass[idx] += 1.0
    return mass / mass.sum()


def build_grid_cells_dict(scene, tile_size):
    """ROI tile membership as a dict tile -> point indices, one `np.split`
    chunk per tile, in ascending (tile_x, tile_y) order."""
    pts = scene.points
    ix = np.floor((pts[:, 0] - pts[:, 0].min()) / tile_size).astype(np.int64)
    iy = np.floor((pts[:, 1] - pts[:, 1].min()) / tile_size).astype(np.int64)
    order = np.lexsort((iy, ix))
    boundaries = np.nonzero(
        (np.diff(ix[order]) != 0) | (np.diff(iy[order]) != 0)
    )[0] + 1
    return {
        (int(ix[chunk[0]]), int(iy[chunk[0]])): chunk
        for chunk in np.split(order, boundaries)
    }


def tile_features_per_tile(grid, scene):
    """ROI tile features computed one tile at a time, as a plain loop: one
    (point_count, max_height, min_height, height mass, density) tuple per
    row of `grid.cells`."""
    from lidarshape.core import Histogram1D
    from lidarshape.roi import HEIGHT_BINS, HEIGHT_RANGE_MAX

    out = []
    area = grid.tile_size**2
    end = 0
    for n in grid.counts.tolist():
        idx = grid.order[end:end + n]
        end += n
        z = scene.points[idx, 2]
        ground = float(np.percentile(z, 5))
        heights = z - ground + 0.0  # -0.0 becomes 0.0, as in roi.tile_features
        hist = Histogram1D.from_values(heights, 0.0, HEIGHT_RANGE_MAX, HEIGHT_BINS)
        out.append((n, float(heights.max()), float(heights.min()), hist.mass, n / area))
    return out


def refine_roi_per_tile(candidate_rows, per_tile, model):
    """ROI refinement one candidate at a time: each tile's distance to the
    class center, then `sorted((d, row))`; `per_tile` holds the tuples of
    `tile_features_per_tile`."""
    scored = []
    for row in candidate_rows:
        n, max_h, min_h, mass, density = per_tile[row]
        z = (np.concatenate([[n, max_h, min_h, density], mass]) - model.center) / model.scale
        scored.append((float(np.sqrt(np.mean(np.square(z)))), row))
    scored.sort()
    if model.k_nearest is not None:
        return sorted(row for _, row in scored[: model.k_nearest])
    return sorted(row for d, row in scored if d <= model.threshold)


def load_xyz_line_by_line(path):
    """xyz-ascii rows parsed one line at a time, with the loader's own line
    parser, so errors carry the same line and message."""
    from lidarshape.core import ParseError, _parse_xyz_line

    rows = []
    with open(path, "r") as fh:
        for line_no, line in enumerate(fh, start=1):
            parsed = _parse_xyz_line(path, line_no, line)
            if parsed is not None:
                rows.append(parsed)
    if not rows:
        raise ParseError(path, 1, "file contains no points")
    return np.array(rows, dtype=np.float64)


def spin_image_per_point(cloud, index, support_radius=None):
    """Spin image grid at one point about the +z axis, voted with one O(n)
    pass and four `np.add.at` calls, as the library computed it before
    blocked passes."""
    from lidarshape.spinimage import SPIN_COLS, SPIN_ROWS, default_support_radius

    if support_radius is None:
        support_radius = default_support_radius(cloud)
    pts = cloud.points
    p = pts[index]
    axis = np.array([0.0, 0.0, 1.0])

    rel = np.delete(pts, index, axis=0) - p
    dist = np.linalg.norm(rel, axis=1)
    rel = rel[dist <= support_radius]
    grid = np.zeros((SPIN_ROWS, SPIN_COLS))
    if rel.shape[0] == 0:
        return grid

    beta = rel @ axis
    alpha = np.linalg.norm(rel - beta[:, None] * axis[None, :], axis=1)

    col_w = support_radius / SPIN_COLS
    row_h = 2.0 * support_radius / SPIN_ROWS
    u = alpha / col_w - 0.5
    v = (beta + support_radius) / row_h - 0.5
    j0 = np.floor(u).astype(np.int64)
    i0 = np.floor(v).astype(np.int64)
    fu = u - j0
    fv = v - i0
    for di, wv in ((0, 1.0 - fv), (1, fv)):
        for dj, wu in ((0, 1.0 - fu), (1, fu)):
            rows = np.clip(i0 + di, 0, SPIN_ROWS - 1)
            cols = np.clip(j0 + dj, 0, SPIN_COLS - 1)
            np.add.at(grid, (rows, cols), wv * wu)
    return grid / grid.sum()


def pairwise_distance(a, b, strategy):
    """One object pair's strategy aggregate of its four per-kind EMDs."""
    from lidarshape.core import emd_1d
    from lidarshape.shapedist import KINDS

    dists = [emd_1d(a[kind].histogram, b[kind].histogram) for kind in KINDS]
    if strategy == "average":
        return float(np.mean(dists))
    if strategy == "smallest":
        return float(np.min(dists))
    return float(np.max(dists))


def distance_matrix_per_pair(feats, order, strategy):
    """Distance matrix over `order` (dataset indices, category-blocked),
    scored pair by pair as the library did before one EMD pass."""
    n = len(order)
    values = np.zeros((n, n))
    for a in range(n):
        for b in range(a + 1, n):
            d = pairwise_distance(feats[order[a]], feats[order[b]], strategy)
            values[a, b] = values[b, a] = d
    return values


def single_linkage_scan(sim):
    """Single-linkage merge sequence by rescanning every cross-set object
    pair at each step (O(n^3) per step), as `align_group` did before Kruskal.
    Returns (kept members, moved members, target, source, distance) per
    merge; ties go to the lowest (distance, min index, max index), and on
    equal sizes the set earlier in the list is kept."""
    sets = [[i] for i in range(sim.shape[0])]
    out = []
    while len(sets) > 1:
        best = None
        for a in range(len(sets)):
            for b in range(a + 1, len(sets)):
                for i in sets[a]:
                    for j in sets[b]:
                        key = (sim[i, j], min(i, j), max(i, j))
                        if best is None or key < best[0]:
                            best = (key, i, j, a, b)
        (dist, _, _), obj_i, obj_j, a, b = best
        if len(sets[a]) >= len(sets[b]):
            kept, moved, target, source = a, b, obj_i, obj_j
        else:
            kept, moved, target, source = b, a, obj_j, obj_i
        out.append((tuple(sets[kept]), tuple(sets[moved]), target, source, float(dist)))
        sets[kept] = sets[kept] + sets[moved]
        del sets[moved]
    return out


def iter_nodes(root):
    """Yield every node in depth-first order."""
    stack = [root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def build_octree_recursive(cloud, cfg):
    """Octree built one node at a time by recursion, with each node's reps
    from a per-cell loop, as the library built it before one array pass per
    depth. Nodes are `OctreeNode`s whose `reps` is a list of
    (position, weight, scatter) tuples, one per occupied sub-voxel cell in
    ascending cell order. Bounds travel as (lo, hi) tuples; the root is the
    smallest cube centered on the bounding box, padded so flat clouds get
    volume."""
    from lidarshape.octree import OctreeNode, subvoxel_grid_per_axis

    pts = cloud.points
    g = subvoxel_grid_per_axis(cfg.reps_per_node)

    def reps_of(points, bounds):
        lo, hi = bounds
        ext = np.maximum(hi - lo, 1e-300)
        cell = np.floor((points - lo) / ext * g).astype(np.int64)
        np.clip(cell, 0, g - 1, out=cell)
        flat = (cell[:, 0] * g + cell[:, 1]) * g + cell[:, 2]
        reps = []
        for cell_id in np.unique(flat):
            members = points[flat == cell_id]
            mean = members.mean(axis=0)
            sq_dev = np.square(members - mean).sum(axis=1)
            reps.append((mean, members.shape[0], float(sq_dev.mean())))
        return reps

    def build(indices, bounds, depth):
        count = indices.shape[0]
        node = OctreeNode(*bounds, depth, count, reps_of(pts[indices], bounds))
        if count <= cfg.leaf_capacity or depth >= cfg.max_depth:
            node.point_indices = indices
            return node
        center = 0.5 * (bounds[0] + bounds[1])
        sub = pts[indices]
        octant = (
            (sub[:, 0] >= center[0]).astype(np.int64) * 4
            + (sub[:, 1] >= center[1]).astype(np.int64) * 2
            + (sub[:, 2] >= center[2]).astype(np.int64)
        )
        for code in range(8):
            child_idx = indices[octant == code]
            if child_idx.shape[0] == 0:
                continue
            lo = bounds[0].copy()
            hi = bounds[1].copy()
            for axis, bit in enumerate((4, 2, 1)):
                if code & bit:
                    lo[axis] = center[axis]
                else:
                    hi[axis] = center[axis]
            node.children.append(build(child_idx, (lo, hi), depth + 1))
        return node

    box_lo, box_hi = pts.min(axis=0), pts.max(axis=0)
    side = float((box_hi - box_lo).max())
    side += 1e-9 * max(1.0, side)
    center = 0.5 * (box_lo + box_hi)
    half = 0.5 * side
    return build(np.arange(len(cloud), dtype=np.int64), (center - half, center + half), 0)


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


def moment_votes_one_shot(kind, positions, scatters, idx):
    """Gaussian vote moments with every tuple's temporaries built at once, as
    `shapedist.moment_votes` computed them before it worked in blocks."""
    from lidarshape.shapedist import ARITY

    arity = ARITY[kind]
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


def gaussian_bin_mass_windowed(
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
    # the same bits as lo + i * width for each edge index i
    edge_values = lo + np.arange(bins + 1) * width

    bucket = 1
    while True:
        sel = half <= bucket if bucket < bins else np.ones_like(half, dtype=bool)
        sel &= half > bucket // 2
        if np.any(sel):
            _window_votes(out, edge_values, bucket, c_s[sel], mu_s[sel], sig_s[sel], w_s[sel])
        if bucket >= bins:
            break
        bucket *= 2
    return out


def _window_votes(out, edge_values, half, center, mu, sigma, weight, chunk=16384):
    """Accumulate votes whose support fits in `center +- half` bins, `chunk`
    window cells at a time through buffers made once per call."""
    from scipy.special import ndtr  # deferred: only HSD voting needs it

    bins = out.shape[0]
    edge_off = np.arange(-half, half + 2)
    rows = max(1, chunk // (2 * half + 2))
    size = min(rows, center.shape[0])
    edge_buf = np.empty((size, 2 * half + 2), dtype=np.int64)
    bin_buf = np.empty((size, 2 * half + 1), dtype=np.int64)
    cdf_buf = np.empty((size, 2 * half + 2))
    mass_buf = np.empty((size, 2 * half + 1))
    for start in range(0, center.shape[0], rows):
        c = center[start : start + rows, None]
        n = c.shape[0]
        edge_idx, bin_idx, cdf, mass = edge_buf[:n], bin_buf[:n], cdf_buf[:n], mass_buf[:n]
        np.add(c, edge_off, out=edge_idx)
        np.clip(edge_idx, 0, bins, out=edge_idx)
        np.take(edge_values, edge_idx, out=cdf)
        cdf -= mu[start : start + n, None]
        cdf /= sigma[start : start + n, None]
        # the window ends are forced to 0 and 1, so only the interior needs the CDF
        ndtr(cdf[:, 1:-1], out=cdf[:, 1:-1])
        cdf[:, 0] = 0.0
        cdf[:, -1] = 1.0
        np.subtract(cdf[:, 1:], cdf[:, :-1], out=mass)
        mass *= weight[start : start + n, None]
        np.add(c, edge_off[:-1], out=bin_idx)
        np.clip(bin_idx, 0, bins - 1, out=bin_idx)
        np.add.at(out, bin_idx.ravel(), mass.ravel())


def exact_sd_one_shot(cloud, kind, cfg):
    """`shapedist.exact_sd` with every tuple measured at once and binned by
    `Histogram1D.from_values`, as it worked before measuring in blocks."""
    from lidarshape.core import Histogram1D
    from lidarshape.shapedist import ARITY, _all_combinations, _resolve_range, _sample_tuples

    arity = ARITY[kind]
    n = len(cloud)
    lo, hi = _resolve_range(cfg, kind, cloud.bbox_diagonal())
    if math.comb(n, arity) <= cfg.sample_budget:
        idx = _all_combinations(n, arity)
    else:
        idx = _sample_tuples(n, arity, cfg.sample_budget, np.random.default_rng(cfg.seed))
    values = measure_many(kind, [cloud.points[idx[:, i]] for i in range(arity)])
    return Histogram1D.from_values(values, lo, hi, cfg.bins)


def sample_tuples_searchsorted(n, r, budget, rng, p=None):
    """`shapedist._sample_tuples` as it drew before its CDF lookup table:
    every weighted draw searches the whole cumulative sum."""
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
