"""Golden CLI outputs: sha256 of every file written by a fixed-seed run.

The roi and features digests were recorded from the code before the xyz
reader and the ROI tile features were vectorized, the spin digests from the
per-point spin-image loop before it became a blocked kernel; any change to
the bytes the CLI writes on these inputs fails here. If an output is
changed on purpose, record the new digests in the same change and say why.
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

SPIN_DIGESTS = {
    "codebook.csv": "a26b4aff77b9252d72b70d1f7b596443669d3ccec20b6a7ffe684114a0f844b8",
    "codes.csv": "6e03bb025ed16ca722bbc2e3ed7270577a126be871d23c8e409ae09f5ae1ff7e",
    "labels.csv": "93b59252b25fcd9914449a93ae2bbcbdc951f01c88ea157a991d1c106a404800",
    "spin_0000.pgm": "dfe96f5669b109630737487b4dbd7285bee3641928e329757547402e091ba2cc",
    "spin_0001.pgm": "3d9c048b80d834b20113f2807bdbbd8a2bc3a92c196186d22bca2ce98a8db939",
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


def test_spin_outputs_match_golden(tmp_path):
    cloud = make_object("lshape", 400, np.random.default_rng(4))
    save_cloud(cloud, tmp_path / "lshape.xyz")
    out = tmp_path / "spin"
    argv = ["spin", str(tmp_path / "lshape.xyz"), "--train", "--dump-images", "2"]
    code = main(argv + ["--out", str(out)])
    assert code == 0
    assert _digests(out) == SPIN_DIGESTS
