"""Segmentation-free object recognition toolkit for street-level LiDAR clouds.

Pipeline stages, each in its own module:

- `core`      point clouds, histograms, 4-DOF transforms, xyz/ply I/O, 1-D EMD
- `octree`    spatial hierarchy; node bounds and weighted reps are per-depth rows
- `shapedist` exact and octree-accelerated shape distribution features
- `spinimage` spin images, PCA codebooks, point encoding, part clustering
- `alignment` 4-DOF ICP and divide-and-conquer group alignment
- `roi`       ground tiling and candidate-location filtering
- `evaluate`  within/across-group distance evaluation harness
- `synth`     synthetic object and scene generators
- `cli`       command-line front end
"""

from .core import (
    Histogram1D,
    ParseError,
    PointCloud,
    Transform4DOF,
    apply_transform,
    emd_1d,
    load_cloud,
    save_cloud,
)

__version__ = "0.1.0"

__all__ = [
    "Histogram1D",
    "ParseError",
    "PointCloud",
    "Transform4DOF",
    "apply_transform",
    "emd_1d",
    "load_cloud",
    "save_cloud",
    "__version__",
]
