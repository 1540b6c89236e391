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
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import Histogram1D, PointCloud

HEIGHT_BINS = 16
HEIGHT_RANGE_MAX = 10.0  # meters; taller returns clamp into the top bin
# width x height above this is refused before anything is sized by it: one
# far outlier would otherwise ask the mask for ~1e8 cells at 1 m tiles
MAX_GRID_CELLS = 50_000_000


@dataclass(frozen=True)
class TileGrid:
    origin: Tuple[float, float]
    tile_size: float
    width: int
    height: int
    cells: Dict[Tuple[int, int], np.ndarray]  # tile -> point indices

    def tile_of(self, x: float, y: float) -> Tuple[int, int]:
        return (
            int(math.floor((x - self.origin[0]) / self.tile_size)),
            int(math.floor((y - self.origin[1]) / self.tile_size)),
        )

    def tile_center(self, tile: Tuple[int, int]) -> Tuple[float, float]:
        return (
            self.origin[0] + (tile[0] + 0.5) * self.tile_size,
            self.origin[1] + (tile[1] + 0.5) * self.tile_size,
        )

    def occupied(self) -> List[Tuple[int, int]]:
        return sorted(self.cells)


@dataclass(frozen=True)
class TileFeature:
    point_count: int
    max_height: float  # above the tile's ground estimate
    min_height: float
    height_histogram: Histogram1D
    density: float  # points per square meter

    @staticmethod
    def empty() -> "TileFeature":
        return TileFeature(
            point_count=0,
            max_height=0.0,
            min_height=0.0,
            height_histogram=Histogram1D.empty(0.0, HEIGHT_RANGE_MAX, HEIGHT_BINS),
            density=0.0,
        )

    def vector(self) -> np.ndarray:
        """Scalars then the 16 histogram bins; the class-model coordinate space."""
        return np.concatenate(
            [
                [self.point_count, self.max_height, self.min_height, self.density],
                self.height_histogram.mass,
            ]
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
    width, height = int(width), int(height)
    ix = np.floor((pts[:, 0] - ox) / tile_size).astype(np.int64)
    iy = np.floor((pts[:, 1] - oy) / tile_size).astype(np.int64)
    order = np.lexsort((iy, ix))
    cells: Dict[Tuple[int, int], np.ndarray] = {}
    sorted_ix, sorted_iy = ix[order], iy[order]
    boundaries = np.nonzero(
        (np.diff(sorted_ix) != 0) | (np.diff(sorted_iy) != 0)
    )[0] + 1
    for chunk in np.split(order, boundaries):
        key = (int(ix[chunk[0]]), int(iy[chunk[0]]))
        cells[key] = chunk
    return TileGrid(
        origin=(ox, oy), tile_size=tile_size, width=width, height=height, cells=cells
    )


def tile_features(grid: TileGrid, scene: PointCloud) -> Dict[Tuple[int, int], TileFeature]:
    """Per-tile features for every occupied tile (empty tiles read as
    TileFeature.empty()). Ground estimate is the tile's 5th percentile z;
    heights are relative to it.

    All tiles are computed together: one sort by (tile, z) puts each tile's
    heights in a sorted segment, and one bincount over (tile, bin) gives
    every height histogram.
    """
    if not grid.cells:
        return {}
    counts = np.array([idx.shape[0] for idx in grid.cells.values()])
    n_tiles = counts.shape[0]
    tile_ids = np.repeat(np.arange(n_tiles), counts)
    z = scene.points[np.concatenate(list(grid.cells.values())), 2]
    z = z[np.lexsort((z, tile_ids))]  # tile_ids is nondecreasing, so it stays aligned
    starts = np.cumsum(counts) - counts
    # np.percentile over a (tiles, n) block of equal-size tiles gives each
    # tile the bits a call on that tile alone would
    ground = np.empty(n_tiles)
    by_count = np.argsort(counts, kind="stable")
    sizes, first = np.unique(counts[by_count], return_index=True)
    for n, sel in zip(sizes, np.split(by_count, first[1:])):
        ground[sel] = np.percentile(z[starts[sel, None] + np.arange(n)], 5, axis=1)
    heights = z - np.repeat(ground, counts)
    bins = Histogram1D.bin_indices(heights, 0.0, HEIGHT_RANGE_MAX, HEIGHT_BINS)
    mass = np.bincount(
        tile_ids * HEIGHT_BINS + bins, minlength=n_tiles * HEIGHT_BINS
    ).reshape(-1, HEIGHT_BINS) / counts[:, None]
    # z is sorted within each tile, so its ends hold the extreme heights
    max_height = heights[starts + counts - 1].tolist()
    min_height = heights[starts].tolist()
    area = grid.tile_size**2
    return {
        tile: TileFeature(
            point_count=n,
            max_height=max_height[i],
            min_height=min_height[i],
            height_histogram=Histogram1D(0.0, HEIGHT_RANGE_MAX, mass[i]),
            density=n / area,
        )
        for i, (tile, n) in enumerate(zip(grid.cells, counts.tolist()))
    }


def basic_filter(
    features: Dict[Tuple[int, int], TileFeature],
    min_points: int = 20,
    height_range: Tuple[float, float] = (0.3, HEIGHT_RANGE_MAX),
) -> List[Tuple[int, int]]:
    """Keep tiles with enough points and a plausible object height."""
    lo, hi = height_range
    return sorted(
        tile
        for tile, feat in features.items()
        if feat.point_count >= min_points and lo <= feat.max_height <= hi
    )


@dataclass(frozen=True)
class ClassModel:
    """Per-class acceptance region: scale-normalized distance to the mean
    tile-feature vector, with either a distance threshold or a K-nearest
    acceptance rule."""

    name: str
    center: np.ndarray
    scale: np.ndarray
    threshold: Optional[float] = 2.0
    k_nearest: Optional[int] = None

    def distance(self, feat: TileFeature) -> float:
        z = (feat.vector() - self.center) / self.scale
        return float(np.sqrt(np.mean(np.square(z))))

    def with_k_nearest(self, k: int) -> "ClassModel":
        return replace(self, threshold=None, k_nearest=k)

    def with_threshold(self, tau: float) -> "ClassModel":
        return replace(self, threshold=tau, k_nearest=None)


def train_class_model(
    positive_tiles: Sequence[TileFeature],
    name: str,
    threshold: Optional[float] = 2.0,
    k_nearest: Optional[int] = None,
) -> ClassModel:
    """Cluster center = componentwise mean of the positive tile vectors;
    per-coordinate scale = standard deviation floored at 1e-6 so count-like
    coordinates cannot dominate the distance."""
    if not positive_tiles:
        raise ValueError("need at least one positive tile")
    vectors = np.stack([t.vector() for t in positive_tiles])
    center = vectors.mean(axis=0)
    scale = np.maximum(vectors.std(axis=0), 1e-6)
    return ClassModel(
        name=name, center=center, scale=scale, threshold=threshold, k_nearest=k_nearest
    )


def refine_roi(
    candidates: Sequence[Tuple[int, int]],
    features: Dict[Tuple[int, int], TileFeature],
    model: ClassModel,
) -> List[Tuple[int, int]]:
    """Threshold mode keeps candidates within `threshold` normalized units of
    the class center; K-nearest mode keeps the K closest (ties by tile
    index). Output is always a subset of the candidates."""
    scored = sorted(
        (model.distance(features[tile]), tile) for tile in candidates
    )
    if model.k_nearest is not None:
        return sorted(tile for _, tile in scored[: model.k_nearest])
    if model.threshold is None:
        raise ValueError("class model has neither threshold nor k_nearest set")
    return sorted(tile for d, tile in scored if d <= model.threshold)


def write_roi_csv(
    grid: TileGrid,
    features: Dict[Tuple[int, int], TileFeature],
    stages: Dict[Tuple[int, int], str],
    path,
) -> None:
    """CSV of every occupied tile with the last pipeline stage it survived."""
    with open(path, "w") as fh:
        fh.write("tile_x,tile_y,center_x,center_y,point_count,max_height,kept_by_stage\n")
        for tile in grid.occupied():
            cx, cy = grid.tile_center(tile)
            feat = features[tile]
            fh.write(
                f"{tile[0]},{tile[1]},{cx:.9g},{cy:.9g},"
                f"{feat.point_count},{feat.max_height:.9g},{stages[tile]}\n"
            )


def write_roi_pgm(grid: TileGrid, stages: Dict[Tuple[int, int], str], path) -> None:
    """Occupancy/ROI mask: brighter means the tile survived further
    (empty 0, occupied 85, basic 170, refined 255). Row 0 is tile_y 0."""
    levels = {"occupied": 85, "basic": 170, "refined": 255}
    img = np.zeros((grid.height, grid.width), dtype=np.uint8)
    for tile, stage in stages.items():
        img[tile[1], tile[0]] = levels[stage]
    with open(path, "w") as fh:
        fh.write(f"P2\n{grid.width} {grid.height}\n255\n")
        for row in img.tolist():
            fh.write(" ".join(map(str, row)) + "\n")
