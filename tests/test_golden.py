"""Golden CLI outputs: sha256 of every file written by a fixed-seed run.

The roi and features digests were recorded from the code before the xyz
reader and the ROI tile features were vectorized, the roi threshold digests
from the per-tile feature objects and the per-tile refinement sort before the
tiles became one table of arrays, the spin digests from the
per-point spin-image loop before it became a blocked kernel, the eval and
align digests from the per-strategy pair loops and the O(n^3) set scan before
one EMD pass and Kruskal merging replaced them, the hsd features digest from
the recursive octree build with its per-cell rep loop before the build became
one array pass per depth, the default-budget hsd features digest from the
one-shot vote moments and exact measurements before tuples were measured
and voted in fixed-size blocks; any change to the bytes the CLI writes on
these inputs fails here. If an output is
changed on purpose, record the new digests in the same change and say why.

The three HSD digest sets (`FEATURES_HSD_DIGESTS`,
`FEATURES_HSD_DEFAULT_DIGESTS` and `EVAL_DIGESTS["hsd"]`) were re-recorded
when Gaussian voting became quantized (sigma classes and mean cells, one
CDF kernel per class and cell offset). The histograms moved within the
quantization error `shapedist._gaussian_bin_mass` states: per-histogram L1
to the windowed votes was 1e-4 to 6e-4 on the two features inputs and up to
3.8e-3 on the eval input, whose 40-point objects vote few tuples. The same
bytes come out under one and two BLAS threads.

`SPIN_DIGESTS["codebook.csv"]` was re-recorded when `train_codebook` began
to compute its covariance and eigensolve on one BLAS thread: LAPACK's
eigenvectors changed bits with the OpenBLAS thread count, so the file
depended on `OPENBLAS_NUM_THREADS`. The new digest is the bytes the old code
wrote under one thread; `codes.csv` and `labels.csv` did not move.
`test_goldens_do_not_depend_on_blas_threads` runs the spin, align and eval
goldens under one and two threads.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lidarshape
from lidarshape.cli import main
from lidarshape.core import PointCloud, Transform4DOF, save_cloud
from lidarshape.synth import make_object, make_scene

ROI_DIGESTS = {
    "mask.pgm": "13894f8432aadb32513c98cdb2930eaed52b41ca8490e058565dda4f654abe65",
    "roi.csv": "acfd6d1af132b3d89994573fd498b0afdecd3fcce7b6146e3d0f02f2a0e46ab1",
}
ROI_TAU_DIGESTS = {
    "mask.pgm": "55d38412dfc88588336708342d0fc9fc217dd7f318ba1cd3790c386e57df0df8",
    "roi.csv": "ff96a4fd7188de90c63a1b0ce40ab394cd32b7be1996b800103fdee8b1d83011",
}
FEATURES_DIGESTS = {
    "features_box.csv": "49a74d148a66fa85b262baed710ab2623aa7eab15d5ec8116d3efae7b8e58186",
}

FEATURES_HSD_DIGESTS = {
    "features_cylinder.csv": "92677b47704547f9a050943f69f2828683326b166a79e532198ba9c01b5ffa6e",
}

FEATURES_HSD_DEFAULT_DIGESTS = {
    "features_cylinder.csv": "2039765ecfe7ea66984a7e7fc528f7e1e9d0d8168d5bc660e53728f43daaa7e8",
}

SPIN_DIGESTS = {
    "codebook.csv": "f7027f810b8cf59b6f1e69ab937d6b1c043ec059f9c57ed42a3d64fefeb3e7ed",
    "codes.csv": "6e03bb025ed16ca722bbc2e3ed7270577a126be871d23c8e409ae09f5ae1ff7e",
    "labels.csv": "93b59252b25fcd9914449a93ae2bbcbdc951f01c88ea157a991d1c106a404800",
    "spin_0000.pgm": "dfe96f5669b109630737487b4dbd7285bee3641928e329757547402e091ba2cc",
    "spin_0001.pgm": "3d9c048b80d834b20113f2807bdbbd8a2bc3a92c196186d22bca2ce98a8db939",
}

EVAL_DIGESTS = {
    "exact": {
        "distance_matrix_average_exact.csv": "0b01e01a4679bc01a7d96aaee86abf350b8307f9fcb363e6be063735b17ed445",
        "distance_matrix_biggest_exact.csv": "681aa9a81bd71b1d68cea93544d48227a92f107e2ad546ac275c59f7a2730039",
        "distance_matrix_smallest_exact.csv": "a979000a337c57c546a149e750b7897995707111fbcc5cb9526d3c0289d88e49",
        "heatmap_average_exact.pgm": "36e00ff33d55549c3ce56550262fb2f3a860614a4b3bb2b428bbfba8d7522a4e",
        "heatmap_biggest_exact.pgm": "78c82fd5a519416cad0f3cc929f9cccf8a78e4aea5bd84b07d83760fe082156c",
        "heatmap_smallest_exact.pgm": "2a2a4b618075b09ecae1e5ff9488c7032ebe55d8db003b0eff5126f3f583c310",
        "stats.csv": "e9bac12149c32810b0769f54c81f6c4ce9991f12621b4868e2c2e4f37257e137",
    },
    "hsd": {
        "distance_matrix_average_hsd.csv": "42fba9f6faa02b88c46f25c57640d56a01d61a4fb902380426a2391795b58598",
        "distance_matrix_biggest_hsd.csv": "1b9bd1d234655eb9ffeffd787042f2f82b176702889ab8d918b13f24abf096d1",
        "distance_matrix_smallest_hsd.csv": "f24626debe50b9e1c957c62759db8f3a086df0e4d4931925e6bebeaeaad77f57",
        "heatmap_average_hsd.pgm": "8bf0b33d98b1447679cf6f4c1b374b46a321b8b0fcda9f66137e4a9010f85490",
        "heatmap_biggest_hsd.pgm": "67ea67db2d0febea17579beb03661a4c8d55d7ce4faea0f4a1db73886c2d9827",
        "heatmap_smallest_hsd.pgm": "c32790bf902e5b062e35a5c2972e4f727792f4a965959f4e030bc32910d00a16",
        "stats.csv": "4076410b3ccba3247bf8a1fb7a8526470809a2cb1c21ffe7a54dc6e8e55a66ea",
    },
}

ALIGN_DIGESTS = {
    "merged.xyz": "f1574182abc1b0e69eccf08ae7c3701cf94c0c61b49395b7c9628ccc7e0448b8",
    "merges.csv": "7f2adb0598fb5eb3a60e867577edd06a7f358fc87e8eef6d003318189c7525a8",
    "similarity.csv": "60bb19ab3b0f90a4ed6e70cebfb868a7dd137cee43747e18dfa39b7044d095ba",
    "transforms.csv": "b5cceb85e9ceb55e46f2d1b713f5e48759fa843c3b0b2a61a15a476dd994705c",
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


def test_roi_threshold_outputs_match_golden(tmp_path):
    # the threshold path (d <= tau): 4 of the 8 basic candidates are refined
    scene = make_scene(seed=0, extent_tiles=20).scene
    save_cloud(scene, tmp_path / "scene.xyz")
    out = tmp_path / "roi"
    argv = ["roi", str(tmp_path / "scene.xyz"), "--refine-tau", "0.6", "--out", str(out)]
    assert main(argv) == 0
    assert _digests(out) == ROI_TAU_DIGESTS


def test_features_outputs_match_golden(tmp_path):
    cloud = make_object("box", 120, np.random.default_rng(3))
    save_cloud(cloud, tmp_path / "box.xyz")
    out = tmp_path / "features"
    code = main(["features", str(tmp_path / "box.xyz"), "--out", str(out)])
    assert code == 0
    assert _digests(out) == FEATURES_DIGESTS


def test_features_hsd_outputs_match_golden(tmp_path):
    """`features --mode hsd` on an 800-point cylinder at the default octree
    settings and level 3. That level holds 46 leaves from depth 2 standing in
    for depth-3 nodes, and 177 reps: 151 from cells with fewer than 8 members
    and 26 from cells with 8 or more, whose scatter means are summed in
    different orders. With `sample_budget = 20000`, D2's 15,576 rep pairs are
    enumerated with product-of-weight votes and A3, T3 and R3 are sampled with
    weight-proportional draws. The exact-mode features golden builds no
    octree."""
    cloud = make_object("cylinder", 800, np.random.default_rng(9))
    save_cloud(cloud, tmp_path / "cylinder.xyz")
    (tmp_path / "hsd.cfg").write_text("sample_budget = 20000\n")
    out = tmp_path / "features"
    argv = ["features", str(tmp_path / "cylinder.xyz"), "--mode", "hsd"]
    argv += ["--config", str(tmp_path / "hsd.cfg"), "--out", str(out)]
    assert main(argv) == 0
    assert _digests(out) == FEATURES_HSD_DIGESTS


def test_features_hsd_default_budget_outputs_match_golden(tmp_path):
    """`features --mode hsd` at the default config, as the objects-hsd
    benchmark runs it: level 3 of a 300-point cylinder holds 127 reps, so
    D2's 8,001 rep pairs are enumerated and A3, T3 and R3 each vote 200,000
    sampled tuples, many tuple blocks with a partial last one."""
    cloud = make_object("cylinder", 300, np.random.default_rng(1))
    save_cloud(cloud, tmp_path / "cylinder.xyz")
    out = tmp_path / "features"
    argv = ["features", str(tmp_path / "cylinder.xyz"), "--mode", "hsd", "--out", str(out)]
    assert main(argv) == 0
    assert _digests(out) == FEATURES_HSD_DEFAULT_DIGESTS


def _run_spin(directory):
    cloud = make_object("lshape", 400, np.random.default_rng(4))
    save_cloud(cloud, directory / "lshape.xyz")
    out = directory / "spin"
    argv = ["spin", str(directory / "lshape.xyz"), "--train", "--dump-images", "2"]
    assert main(argv + ["--out", str(out)]) == 0
    return _digests(out)


def test_spin_outputs_match_golden(tmp_path):
    assert _run_spin(tmp_path) == SPIN_DIGESTS


def _eval_manifest(directory):
    """Five 40-point objects whose categories interleave, so the category
    blocking reorders the rows, plus a singleton category (undefined
    within-stats)."""
    rng = np.random.default_rng(6)
    lines = []
    for i, kind in enumerate(("sphere", "box", "sphere", "box", "cylinder")):
        save_cloud(make_object(kind, 40, rng), directory / f"{kind}_{i}.xyz")
        lines.append(f"{kind}_{i}.xyz,{kind}")
    path = directory / "manifest.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


def _run_eval(directory, mode):
    manifest = _eval_manifest(directory)
    out = directory / f"eval_{mode}"
    argv = ["eval", str(manifest), "--mode", mode, "--strategy", "all", "--out", str(out)]
    assert main(argv) == 0
    return _digests(out)


@pytest.mark.parametrize("mode", ["exact", "hsd"])
def test_eval_outputs_match_golden(tmp_path, mode):
    assert _run_eval(tmp_path, mode) == EVAL_DIGESTS[mode]


def _run_align(directory):
    # noise-free 4-DOF copies have exactly equal features, and the last two
    # objects duplicate two files: the merge order is decided by its ties
    rng = np.random.default_rng(8)
    names = []
    for kind in ("lshape", "box"):
        base = make_object(kind, 60, rng).points
        for _ in range(3):
            t = Transform4DOF(*rng.uniform(-3, 3, size=3), float(rng.uniform(-0.5, 0.5)))
            names.append(f"{kind}_{len(names)}.xyz")
            save_cloud(PointCloud(t.apply_points(base)), directory / names[-1])
    lines = [f"{n},{n.split('_')[0]}" for n in names + [names[1], names[4]]]
    (directory / "manifest.csv").write_text("\n".join(lines) + "\n")
    out = directory / "align"
    argv = ["align", str(directory / "manifest.csv"), "--merged-out", "merged.xyz"]
    assert main(argv + ["--out", str(out)]) == 0
    return _digests(out)


def test_align_outputs_match_golden(tmp_path):
    assert _run_align(tmp_path) == ALIGN_DIGESTS


def _thread_checked_runs(directory):
    """Digests of the spin, align and eval golden runs, each in its own
    subdirectory of `directory`."""
    runs = {
        "spin": _run_spin,
        "align": _run_align,
        "eval-exact": lambda d: _run_eval(d, "exact"),
        "eval-hsd": lambda d: _run_eval(d, "hsd"),
    }
    out = {}
    for name, run in runs.items():
        (directory / name).mkdir()
        out[name] = run(directory / name)
    return out


def test_goldens_do_not_depend_on_blas_threads(tmp_path):
    # each thread count needs a fresh process: OpenBLAS reads the variable
    # when it loads
    paths = [str(Path(__file__).parent), str(Path(lidarshape.__file__).resolve().parents[1])]
    want = {
        "spin": SPIN_DIGESTS,
        "align": ALIGN_DIGESTS,
        "eval-exact": EVAL_DIGESTS["exact"],
        "eval-hsd": EVAL_DIGESTS["hsd"],
    }
    for threads in ("1", "2"):
        work = tmp_path / f"threads{threads}"
        work.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
        code = (
            "import json, pathlib, sys, test_golden; "
            "digests = test_golden._thread_checked_runs(pathlib.Path(sys.argv[1])); "
            "print(json.dumps(digests))"
        )
        done = subprocess.run([sys.executable, "-c", code, str(work)],
                              capture_output=True, text=True, check=True, env=env)
        assert json.loads(done.stdout.splitlines()[-1]) == want, threads
