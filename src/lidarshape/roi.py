"""Candidate-location selection over a street scene.

Points are pushed down onto a regular ground tile grid; each tile gets a
small feature vector (count, heights above a robust per-tile ground
estimate, a height histogram, density). Cheap filters then whittle tiles
down: a basic count/height filter first, then an optional refinement that
keeps tiles close to a trained per-class feature center (by threshold or by
K-nearest). The filters only ever discard tiles, never invent them, so
recall of planted objects is governed by the basic stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import Histogram1D, PointCloud, write_pgm, write_table

HEIGHT_BINS = 16
HEIGHT_RANGE_MAX = 10.0  # meters; taller returns clamp into the top bin
# width x height above this is refused before anything is sized by it: one
# far outlier would otherwise ask the mask for ~1e8 cells at 1 m tiles
MAX_GRID_CELLS = 50_000_000
# kept_by_stage values; a tile's stage is its index here
STAGES = ("occupied", "basic", "refined")


@dataclass(frozen=True)
class TileGrid:
    """Occupied tiles as one table, one row per tile in ascending
    (tile_x, tile_y) order."""

    origin: Tuple[float, float]
    tile_size: float
    width: int
    height: int
    cells: np.ndarray  # (tiles, 2) int64 tile_x, tile_y
    order: np.ndarray  # point indices grouped by tile, each tile in index order
    counts: np.ndarray  # points per tile

    def centers(self) -> np.ndarray:
        return np.asarray(self.origin) + (self.cells + 0.5) * self.tile_size


@dataclass(frozen=True)
class TileFeatures:
    """Per-tile feature columns, one row per row of the grid's `cells`."""

    point_count: np.ndarray
    max_height: np.ndarray  # above the tile's ground estimate
    min_height: np.ndarray
    height_mass: np.ndarray  # (tiles, HEIGHT_BINS), each row sums to 1
    density: np.ndarray  # points per square meter

    def vectors(self) -> np.ndarray:
        """Scalars then the 16 histogram bins; the class-model coordinate space."""
        return np.column_stack(
            [self.point_count, self.max_height, self.min_height, self.density, self.height_mass]
        )


def build_grid(scene: PointCloud, tile_size: float = 1.0) -> TileGrid:
    """Axis-aligned tile grid over the scene's xy extent; a point on a tile
    boundary belongs to the higher-index tile (floor convention)."""
    if not tile_size > 0:
        raise ValueError(f"tile_size must be positive, got {tile_size}")
    pts = scene.points
    ox, oy = float(pts[:, 0].min()), float(pts[:, 1].min())
    # the last tile on each axis holds the max coordinate; found before any
    # per-point int cast, which a far outlier could overflow
    extent = np.array([pts[:, 0].max() - ox, pts[:, 1].max() - oy])
    width, height = (np.floor(extent / tile_size) + 1).tolist()
    if width * height > MAX_GRID_CELLS:
        raise ValueError(
            f"scene extent {extent[0]:.9g} x {extent[1]:.9g} at tile size {tile_size:g} "
            f"needs {width:.9g} x {height:.9g} tiles, more than {MAX_GRID_CELLS} cells"
        )
    ix = np.floor((pts[:, 0] - ox) / tile_size).astype(np.int64)
    iy = np.floor((pts[:, 1] - oy) / tile_size).astype(np.int64)
    order = np.lexsort((iy, ix))
    sorted_ix, sorted_iy = ix[order], iy[order]
    new_tile = (np.diff(sorted_ix) != 0) | (np.diff(sorted_iy) != 0)
    starts = np.concatenate([[0], np.flatnonzero(new_tile) + 1])
    return TileGrid(
        origin=(ox, oy),
        tile_size=tile_size,
        width=int(width),
        height=int(height),
        cells=np.column_stack([sorted_ix[starts], sorted_iy[starts]]),
        order=order,
        counts=np.diff(starts, append=order.shape[0]),
    )


def tile_features(grid: TileGrid, scene: PointCloud) -> TileFeatures:
    """Features of every occupied tile. Ground estimate is the tile's 5th
    percentile z; heights are relative to it.

    All tiles are computed together: one sort by (tile, z) puts each tile's
    heights in a sorted segment, and one bincount over (tile, bin) gives
    every height histogram.
    """
    counts = grid.counts
    n_tiles = counts.shape[0]
    tile_ids = np.repeat(np.arange(n_tiles), counts)
    z = scene.points[grid.order, 2]
    z = z[np.lexsort((z, tile_ids))]  # tile_ids is nondecreasing, so it stays aligned
    starts = np.cumsum(counts) - counts
    # np.percentile's linear rule on each sorted segment, in its `_lerp` bits
    at = (counts - 1) * 0.05
    below = np.floor(at).astype(np.int64)
    g = at - below
    a, b = z[starts + below], z[starts + np.minimum(below + 1, counts - 1)]
    ground = np.where(g >= 0.5, b - (b - a) * (1 - g), a + (b - a) * g)
    heights = z - np.repeat(ground, counts) + 0.0  # + 0.0 turns -0.0 into 0.0
    bins = Histogram1D.bin_indices(heights, 0.0, HEIGHT_RANGE_MAX, HEIGHT_BINS)
    mass = np.bincount(
        tile_ids * HEIGHT_BINS + bins, minlength=n_tiles * HEIGHT_BINS
    ).reshape(-1, HEIGHT_BINS) / counts[:, None]
    # z is sorted within each tile, so its ends hold the extreme heights
    return TileFeatures(
        point_count=counts,
        max_height=heights[starts + counts - 1],
        min_height=heights[starts],
        height_mass=mass,
        density=counts / grid.tile_size**2,
    )


def basic_filter(
    features: TileFeatures,
    min_points: int = 20,
    height_range: Tuple[float, float] = (0.3, HEIGHT_RANGE_MAX),
) -> np.ndarray:
    """Rows of the tiles with enough points and a plausible object height."""
    lo, hi = height_range
    h = features.max_height
    return np.flatnonzero((features.point_count >= min_points) & (lo <= h) & (h <= hi))


@dataclass(frozen=True)
class ClassModel:
    """Per-class feature center: tiles are scored by their scale-normalized
    distance to the mean tile-feature vector."""

    center: np.ndarray
    scale: np.ndarray

    def distances(self, vectors: np.ndarray) -> np.ndarray:
        z = (vectors - self.center) / self.scale
        return np.sqrt(np.mean(np.square(z), axis=1))


def train_class_model(vectors: np.ndarray) -> ClassModel:
    """Cluster center = componentwise mean of the positive tile vectors
    (rows); per-coordinate scale = standard deviation floored at 1e-6 so
    count-like coordinates cannot dominate the distance."""
    if len(vectors) == 0:
        raise ValueError("need at least one positive tile")
    return ClassModel(center=vectors.mean(axis=0), scale=np.maximum(vectors.std(axis=0), 1e-6))


def refine_roi(
    candidate_rows: np.ndarray,
    features: TileFeatures,
    model: Optional[ClassModel] = None,
    k_nearest: Optional[int] = None,
    threshold: Optional[float] = None,
) -> np.ndarray:
    """Keep the `k_nearest` candidates closest to the class center (ties by
    tile index), or those within `threshold` normalized units of it; exactly
    one rule is given. Without a model, one is trained on the candidates.
    Returns the kept rows in tile order, a subset of the candidates."""
    if (k_nearest is None) == (threshold is None):
        raise ValueError("refine_roi takes exactly one of k_nearest and threshold")
    if k_nearest is not None and k_nearest < 0:
        raise ValueError(f"k nearest must be non-negative, got {k_nearest}")
    if threshold is not None and math.isnan(threshold):
        raise ValueError("distance threshold must be a number, got nan")
    rows = np.asarray(candidate_rows, dtype=np.int64)
    if rows.size == 0:
        return rows
    vectors = features.vectors()[rows]
    d = (model or train_class_model(vectors)).distances(vectors)
    if k_nearest is not None:
        # rows are in tile order, so lexsort breaks distance ties by tile
        return np.sort(rows[np.lexsort((rows, d))[:k_nearest]])
    return np.sort(rows[d <= threshold])


def write_roi_csv(grid: TileGrid, features: TileFeatures, stage: np.ndarray, path) -> None:
    """CSV of every occupied tile with the last pipeline stage (an index
    into STAGES) it survived."""
    columns = zip(
        *grid.cells.T.tolist(),
        *grid.centers().T.tolist(),
        features.point_count.tolist(),
        features.max_height.tolist(),
        [STAGES[s] for s in stage.tolist()],
    )
    header = "tile_x,tile_y,center_x,center_y,point_count,max_height,kept_by_stage\n"
    write_table(path, header, "%d,%d,%.9g,%.9g,%d,%.9g,%s\n", columns)


def write_roi_pgm(grid: TileGrid, stage: np.ndarray, path) -> None:
    """Occupancy/ROI mask: brighter means the tile survived further
    (empty 0, occupied 85, basic 170, refined 255). Row 0 is tile_y 0."""
    img = np.zeros((grid.height, grid.width), dtype=np.uint8)
    img[grid.cells[:, 1], grid.cells[:, 0]] = 85 * (stage + 1)
    write_pgm(path, img)
