"""Golden CLI outputs: sha256 of every file written by a fixed-seed run.

The digests were recorded from the code before the xyz reader and the ROI
tile features were vectorized; any change to the bytes the CLI writes on
these inputs fails here. If an output is changed on purpose, record the new
digests in the same change and say why.
"""

import hashlib

import numpy as np

from lidarshape.cli import main
from lidarshape.core import save_cloud
from lidarshape.synth import make_object, make_scene

ROI_DIGESTS = {
    "mask.pgm": "13894f8432aadb32513c98cdb2930eaed52b41ca8490e058565dda4f654abe65",
    "roi.csv": "acfd6d1af132b3d89994573fd498b0afdecd3fcce7b6146e3d0f02f2a0e46ab1",
}
FEATURES_DIGESTS = {
    "features_box.csv": "49a74d148a66fa85b262baed710ab2623aa7eab15d5ec8116d3efae7b8e58186",
}


def _digests(directory):
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir())
    }


def test_roi_outputs_match_golden(tmp_path):
    scene = make_scene(seed=0, extent_tiles=20).scene
    save_cloud(scene, tmp_path / "scene.xyz")
    out = tmp_path / "roi"
    code = main(["roi", str(tmp_path / "scene.xyz"), "--refine-k", "5", "--out", str(out)])
    assert code == 0
    assert _digests(out) == ROI_DIGESTS


def test_features_outputs_match_golden(tmp_path):
    cloud = make_object("box", 120, np.random.default_rng(3))
    save_cloud(cloud, tmp_path / "box.xyz")
    out = tmp_path / "features"
    code = main(["features", str(tmp_path / "box.xyz"), "--out", str(out)])
    assert code == 0
    assert _digests(out) == FEATURES_DIGESTS
