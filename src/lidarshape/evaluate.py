"""Within/across-group evaluation of the four shape distribution features.

Every object gets D2, A3, T3, R3 histograms over ranges fixed once from the
dataset-wide maximum diameter (so histograms are comparable across objects),
either exactly or via HSD over the reps of the octree's deepest level
(`OctreeConfig.max_depth`). One EMD pass scores every object pair per
histogram (`kind_distances`); each of the three strategies (average,
smallest, biggest of the four) is then a reduction of that one array, and
`group_stats` gives one `CategoryStats` per category, in the order the
dataset's objects first name them: the within/across mean-distance ratio
should sit well below 1 for well-separated classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import ParseError, PointCloud, array_rows, cloud_diameter, emd_1d, load_cloud
from .core import write_pgm, write_table
from .octree import OctreeConfig, build_octree
from .shapedist import KINDS, SDConfig, SDFeature, exact_sd, hsd, sd_ranges

_REDUCE = {"average": np.mean, "smallest": np.min, "biggest": np.max}
STRATEGIES = tuple(_REDUCE)
MODES = ("exact", "hsd")
UNDEFINED = "NA"  # explicit marker for stats that do not exist


@dataclass(frozen=True)
class LabeledDataset:
    objects: Tuple[Tuple[PointCloud, str], ...]

    @property
    def categories(self) -> Tuple[str, ...]:
        """Each category once, in order of its first object."""
        return tuple(dict.fromkeys(cat for _, cat in self.objects))

    def __len__(self) -> int:
        return len(self.objects)


def load_manifest(path) -> LabeledDataset:
    """CSV manifest: file_path,category per line; relative paths resolve
    against the manifest's directory."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"no such manifest: {path}")
    base = path.parent
    pairs = []
    with open(path, "r") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if line.lower().replace(" ", "") == "file_path,category":
                continue  # optional header
            fields = line.split(",")
            if len(fields) != 2:
                raise ParseError(path, line_no, "expected 'file_path,category'")
            rel, cat = fields[0].strip(), fields[1].strip()
            cloud_path = Path(rel)
            if not cloud_path.is_absolute():
                cloud_path = base / cloud_path
            pairs.append((load_cloud(cloud_path, label=cat), cat))
    if not pairs:
        raise ValueError(f"{path}: manifest lists no objects")
    return LabeledDataset(tuple(pairs))


def object_4features(
    cloud: PointCloud,
    mode: str,
    cfg: SDConfig,
    ranges: Dict[str, Tuple[float, float]],
    octree_cfg: OctreeConfig = OctreeConfig(),
) -> Dict[str, SDFeature]:
    """All four histograms for one object, over the supplied fixed ranges;
    HSD reads the reps of the octree's deepest level, `octree_cfg.max_depth`."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    if len(cloud) < 4:
        raise ValueError(f"need at least 4 points for all features, got {len(cloud)}")
    out = {}
    root = build_octree(cloud, octree_cfg) if mode == "hsd" else None
    for kind in KINDS:
        lo, hi = ranges[kind]
        kind_cfg = cfg.fixed(lo, hi)
        if mode == "exact":
            out[kind] = exact_sd(cloud, kind, kind_cfg)
        else:
            out[kind] = hsd(root, kind, octree_cfg.max_depth, kind_cfg)
    return out


@dataclass(frozen=True)
class DistanceMatrix:
    values: np.ndarray
    row_categories: Tuple[str, ...]
    row_objects: Tuple[int, ...]  # original dataset indices, category-blocked


def dataset_features(
    ds: LabeledDataset,
    mode: str,
    cfg: SDConfig,
    octree_cfg: OctreeConfig = OctreeConfig(),
    threads: int = 1,
) -> List[Dict[str, SDFeature]]:
    """Per-object features in dataset order; ranges fixed from the dataset
    maximum diameter. Every object uses the same sampling seed, so duplicate
    objects always map to identical features. A ValueError names the object
    by index and category."""
    ranges = sd_ranges(max(cloud_diameter(cloud.points) for cloud, _ in ds.objects))

    def one(item):
        i, (cloud, category) = item
        try:
            return object_4features(cloud, mode, cfg, ranges, octree_cfg)
        except ValueError as exc:
            raise ValueError(f"object {i} ({category}): {exc}") from None

    items = list(enumerate(ds.objects))
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(one, items))
    return [one(it) for it in items]


def block_order(ds: LabeledDataset) -> List[int]:
    """Objects grouped by category (in category-list order), input order
    within a category; matches the block-structured matrix presentation."""
    order = []
    for cat in ds.categories:
        order.extend(i for i, (_, c) in enumerate(ds.objects) if c == cat)
    return order


def kind_distances(feats: Sequence[Dict[str, SDFeature]]) -> np.ndarray:
    """EMD between every pair of objects for each histogram kind: an (n, n, 4)
    array, KINDS order on the last axis, zero on the diagonal. `emd_1d` runs
    once per object pair and kind."""
    n = len(feats)
    out = np.zeros((n, n, len(KINDS)))
    for i in range(n):
        for j in range(i + 1, n):
            out[i, j] = out[j, i] = [
                emd_1d(feats[i][kind].histogram, feats[j][kind].histogram) for kind in KINDS
            ]
    return out


def distance_matrix(
    ds: LabeledDataset, kinds: np.ndarray, strategy: str = "average"
) -> DistanceMatrix:
    """Category-blocked object distances: the strategy's aggregate of the four
    per-kind EMDs in `kinds` (from `kind_distances` in dataset order)."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if len(ds) < 2:
        raise ValueError(f"need at least 2 objects, got {len(ds)}")
    order = block_order(ds)
    # the contiguous length-4 last axis sums in the order np.mean of a list does
    values = _REDUCE[strategy](kinds[np.ix_(order, order)], axis=-1)
    return DistanceMatrix(
        values=values,
        row_categories=tuple(ds.objects[i][1] for i in order),
        row_objects=tuple(order),
    )


@dataclass(frozen=True)
class CategoryStats:
    category: str
    within_mean: Optional[float]
    within_var: Optional[float]
    across_mean: Optional[float]
    across_var: Optional[float]

    @property
    def ratio(self) -> Optional[float]:
        if self.within_mean is None or self.across_mean is None or self.across_mean <= 0:
            return None
        return self.within_mean / self.across_mean


def group_stats(m: DistanceMatrix, ds: LabeledDataset) -> Tuple[CategoryStats, ...]:
    """Population mean/variance of within- and across-category entries, one
    record per category in `ds.categories` order.

    Within uses unordered same-category pairs; across pairs the category's
    objects with every object outside it. Singleton categories have no
    within pairs and single-category datasets no across pairs; those stats
    stay undefined rather than reading as zero.
    """
    if len(m.row_categories) != len(ds):
        raise ValueError("matrix does not match dataset size")
    cats = np.array(m.row_categories)
    out = []
    for cat in ds.categories:
        inside = np.nonzero(cats == cat)[0]
        outside = np.nonzero(cats != cat)[0]
        within = m.values[np.ix_(inside, inside)][np.triu_indices(len(inside), 1)]
        across = m.values[np.ix_(inside, outside)].ravel()
        # within mean and variance, then across mean and variance
        stats = [float(f(d)) if d.size else None
                 for d in (within, across) for f in (np.mean, np.var)]
        out.append(CategoryStats(cat, *stats))
    return tuple(out)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------


def write_matrix_csv(m: DistanceMatrix, path) -> None:
    names = [f"{cat}:{i}" for cat, i in zip(m.row_categories, m.row_objects)]
    rows = ((name, *row) for name, row in zip(names, array_rows(m.values)))
    write_table(path, "object," + ",".join(names) + "\n", "%s" + ",%.9g" * len(names) + "\n", rows)


def write_stats_csv(
    stats_rows: Sequence[Tuple[Sequence[CategoryStats], str, str]], path
) -> None:
    """Rows of (group_stats result, strategy, mode) flattened to one CSV line
    per category."""

    def rows():
        for stats, strategy, mode in stats_rows:
            for cs in stats:
                values = (cs.within_mean, cs.within_var, cs.across_mean, cs.across_var, cs.ratio)
                text = [UNDEFINED if v is None else f"{v:.9g}" for v in values]
                yield (cs.category, *text, strategy, mode)

    header = "category,within_mean,within_var,across_mean,across_var,ratio,strategy,mode\n"
    write_table(path, header, ",".join(["%s"] * 8) + "\n", rows())


def write_matrix_pgm(m: DistanceMatrix, path) -> None:
    """Linear gray heatmap, smallest distance white, largest black."""
    vals = m.values
    span = float(vals.max() - vals.min())
    if span <= 0:
        gray = np.full(vals.shape, 255, dtype=np.int64)
    else:
        gray = np.rint(255 * (1.0 - (vals - vals.min()) / span)).astype(np.int64)
    write_pgm(path, gray)
