"""Independent reference implementations used as test oracles.

These deliberately avoid the library's own code paths: the point is to check
the closed-form implementations against brute force. The loop references
(`build_grid_cells_dict`, `tile_features_per_tile`, `refine_roi_per_tile`,
`load_xyz_line_by_line`, `spin_image_per_point`, `distance_matrix_per_pair`,
`single_linkage_scan`, `build_octree_recursive`) are the plain per-item
versions that the vectorized library code must match bit for bit, and the
one-shot shape-distribution references (`moment_votes_one_shot`,
`gaussian_bin_mass_one_shot`, `exact_sd_one_shot`) are the whole-budget
versions that the blocked library code must match bit for bit.
"""

import itertools
import math

import numpy as np
from scipy.optimize import linprog


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
    from lidarshape.shapedist import ARITY, measure

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
        heights = z - ground
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


def spin_image_per_point(cloud, index, axis_mode="global-z", support_radius=None):
    """Spin image at one point, voted with one O(n) pass and four
    `np.add.at` calls, as the library computed it before blocked passes."""
    from lidarshape.spinimage import (
        GLOBAL_Z,
        LOCAL_NORMAL,
        SPIN_COLS,
        SPIN_ROWS,
        SpinImage,
        _local_normal,
        default_support_radius,
    )

    if support_radius is None:
        support_radius = default_support_radius(cloud)
    pts = cloud.points
    p = pts[index]
    if axis_mode == GLOBAL_Z:
        axis = np.array([0.0, 0.0, 1.0])
    elif axis_mode == LOCAL_NORMAL:
        axis = _local_normal(pts, index)
    else:
        raise ValueError(f"unknown axis_mode {axis_mode!r}")

    rel = np.delete(pts, index, axis=0) - p
    dist = np.linalg.norm(rel, axis=1)
    rel = rel[dist <= support_radius]
    grid = np.zeros((SPIN_ROWS, SPIN_COLS))
    if rel.shape[0] == 0:
        return SpinImage(grid, support_radius)

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
    return SpinImage(grid / grid.sum(), support_radius)


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


def build_octree_recursive(cloud, cfg):
    """Octree built one node at a time by recursion, with each node's reps
    from a per-cell loop, as the library built it before one array pass per
    depth. Nodes are `OctreeNode`s whose `reps` is a list of
    (position, weight, scatter) tuples, one per occupied sub-voxel cell in
    ascending cell order."""
    from lidarshape.core import AABB
    from lidarshape.octree import OctreeNode, subvoxel_grid_per_axis

    pts = cloud.points
    g = subvoxel_grid_per_axis(cfg.reps_per_node)

    def reps_of(points, bounds):
        ext = np.maximum(bounds.extent(), 1e-300)
        cell = np.floor((points - bounds.min) / ext * g).astype(np.int64)
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
        node = OctreeNode(bounds, depth, count, reps_of(pts[indices], bounds))
        if count <= cfg.leaf_capacity or depth >= cfg.max_depth:
            node.point_indices = indices
            return node
        center = 0.5 * (bounds.min + bounds.max)
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
            lo = bounds.min.copy()
            hi = bounds.max.copy()
            for axis, bit in enumerate((4, 2, 1)):
                if code & bit:
                    lo[axis] = center[axis]
                else:
                    hi[axis] = center[axis]
            node.children.append(build(child_idx, AABB(lo, hi), depth + 1))
        return node

    return build(np.arange(len(cloud), dtype=np.int64), cloud.aabb().expanded_to_cube(), 0)


def moment_votes_one_shot(kind, positions, scatters, idx):
    """Gaussian vote moments with every tuple's temporaries built at once, as
    `shapedist.moment_votes` computed them before it worked in blocks."""
    from lidarshape.shapedist import (
        ARITY,
        _central_difference_mags,
        gradient_magnitudes,
        measure_many,
    )

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


def gaussian_bin_mass_one_shot(edges, mu, sigma, weight):
    """Gaussian vote mass with fresh window arrays per chunk and the CDF on
    every window column, as `shapedist._gaussian_bin_mass` voted before its
    window buffers were reused."""
    from scipy.special import ndtr

    bins = edges.shape[0] - 1
    lo = float(edges[0])
    width = (float(edges[-1]) - lo) / bins
    out = np.zeros(bins)
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
            center_b, mu_b, sig_b, w_b = c_s[sel], mu_s[sel], sig_s[sel], w_s[sel]
            edge_off = np.arange(-bucket, bucket + 2)
            bin_off = np.arange(-bucket, bucket + 1)
            rows = max(1, 16384 // (2 * bucket + 2))
            for start in range(0, center_b.shape[0], rows):
                stop = start + rows
                c = center_b[start:stop]
                edge_idx = np.clip(c[:, None] + edge_off[None, :], 0, bins)
                z = (lo + edge_idx * width - mu_b[start:stop, None]) / sig_b[start:stop, None]
                cdf = ndtr(z)
                cdf[:, 0] = 0.0
                cdf[:, -1] = 1.0
                mass = np.diff(cdf, axis=1) * w_b[start:stop, None]
                bin_idx = np.clip(c[:, None] + bin_off[None, :], 0, bins - 1)
                np.add.at(out, bin_idx.ravel(), mass.ravel())
        if bucket >= bins:
            break
        bucket *= 2
    return out


def exact_sd_one_shot(cloud, kind, cfg):
    """`shapedist.exact_sd` with every tuple measured at once and binned by
    `Histogram1D.from_values`, as it worked before measuring in blocks."""
    from lidarshape.core import Histogram1D
    from lidarshape.shapedist import (
        ARITY,
        _all_combinations,
        _resolve_range,
        _sample_tuples,
        measure_many,
    )

    arity = ARITY[kind]
    n = len(cloud)
    lo, hi = _resolve_range(cfg, kind, cloud.bbox_diagonal())
    if math.comb(n, arity) <= cfg.sample_budget:
        idx = _all_combinations(n, arity)
    else:
        idx = _sample_tuples(n, arity, cfg.sample_budget, np.random.default_rng(cfg.seed))
    values = measure_many(kind, [cloud.points[idx[:, i]] for i in range(arity)])
    return Histogram1D.from_values(values, lo, hi, cfg.bins)
