"""Self-tests of the benchmark: generator determinism, span arithmetic, the
wrapper binding sites, the output checks, and a miniature run of every
workload with every check on.

    python3 perfbench/selftest.py          # or: python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import measure  # noqa: E402

sys.path.insert(0, str(measure.SRC))

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Span, Tracer, layer_metrics, self_times  # noqa: E402

MINI = {
    "HSD_CLASSES": ("box", "sphere"),
    "HSD_POINTS": 60,
    "LARGE_POINTS": 3_000,
    "SCENE_TILES": 12,
    "SCENE_OBJECTS": 6,
    "REFINE_K": 3,
    "ALIGN_BASES": ("lshape", "pole"),
    "ALIGN_COPIES": 3,
    "ALIGN_POINTS": 80,
    "SPIN_POINTS": 60,
}


@contextlib.contextmanager
def miniature():
    """Shrink every workload's inputs for the duration of a test."""
    saved = {name: getattr(workloads, name) for name in MINI}
    for name, value in MINI.items():
        setattr(workloads, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(workloads, name, value)


def scratch(name: str) -> Path:
    path = measure.WORK / "selftest" / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def test_generator_is_deterministic():
    with miniature():
        for name, w in workloads.WORKLOADS.items():
            a, b, c = scratch(f"{name}-a"), scratch(f"{name}-b"), scratch(f"{name}-c")
            meta_a, meta_b = w.generate(7, a), w.generate(7, b)
            w.generate(8, c)
            assert workloads.output_digest(a) == workloads.output_digest(b), name
            assert meta_a["items"] == meta_b["items"], name
            assert workloads.output_digest(a) != workloads.output_digest(c), name
            # the generator writes only what the command reads
            suffixes = {p.suffix for p in a.iterdir()}
            assert suffixes <= {".xyz", ".csv"}, (name, suffixes)


def test_benchmark_json_matches_the_code():
    bench = json.loads((measure.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()


def test_self_time_of_a_synthetic_nest():
    #   a [0, 100] ── b [10, 40] ── d [20, 30]
    #              ├─ c [50, 60]
    #              └─ e [90, 120]  (runs past its parent: clipped)
    nest = [
        Span("a", 0, 100),
        Span("b", 10, 40, parent=0),
        Span("d", 20, 30, parent=1),
        Span("c", 50, 60, parent=0),
        Span("e", 90, 120, parent=0),
    ]
    assert self_times(nest) == [100 - 30 - 10 - 10, 30 - 10, 10, 10, 30]
    overlapping = [Span("p", 0, 10), Span("x", 2, 6, parent=0),
                   Span("y", 4, 8, parent=0)]
    assert self_times(overlapping)[0] == 10 - 6


def test_layer_metrics_sum_busy_and_self_time():
    tr = Tracer()
    s = 1_000_000_000
    tr.spans = [
        Span("similarity_matrix", 0, 4 * s),
        Span("exact_sd.D2", 1 * s, 2 * s, parent=0),
        Span("emd_1d", 2 * s, 3 * s, parent=0),
        Span("icp_4dof", 5 * s, 6 * s),
    ]
    m = layer_metrics(tr, 7 * s)
    assert m["alignment.similarity_matrix.s"] == 4.0
    assert m["alignment.similarity_matrix.self_s"] == 2.0
    assert m["shapedist.exact_sd.D2.s"] == 1.0
    assert m["core.emd_1d.calls"] == 1 and m["alignment.icp_4dof.calls"] == 1
    assert m["cli.other_s"] == 7.0 - 4.0 - 1.0
    quality = {f"quality.{q}" for q in workloads.QUALITY_UNITS}
    assert sorted(m) == sorted(set(run.per_layer_units()) - quality - {"trace.overhead_s"})


def test_wrappers_sit_at_every_binding_site():
    from lidarshape import alignment, cli, core, evaluate, octree, shapedist

    sites = {
        cli: ("load_cloud", "save_cloud", "build_octree", "exact_sd", "hsd"),
        evaluate: ("load_cloud", "emd_1d", "build_octree", "exact_sd", "hsd"),
        alignment: ("emd_1d", "exact_sd"),
        core: ("load_cloud", "save_cloud", "emd_1d"),
        octree: ("build_octree", "nodes_at_level"),
        shapedist: ("exact_sd", "hsd", "nodes_at_level"),
    }
    before = {(m, n): getattr(m, n) for m, names in sites.items() for n in names}
    with Tracer():
        for (module, name), original in before.items():
            wrapped = getattr(module, name)
            assert wrapped is not original and wrapped.__wrapped__ is original, (module, name)
        assert shapedist._gaussian_bin_mass.__name__ == "_gaussian_bin_mass"
        assert not hasattr(shapedist._gaussian_bin_mass, "__wrapped__")
    for (module, name), original in before.items():
        assert getattr(module, name) is original, (module, name)


def test_errors_are_counted_per_layer():
    from lidarshape import core

    with Tracer() as tr:
        try:
            core.load_cloud(scratch("errors") / "missing.xyz")
        except FileNotFoundError:
            pass
    assert layer_metrics(tr, 1)["core.errors"] == 1


def _in_process_outputs(name: str, seed: int = 3):
    """Inputs and one in-process CLI run of a miniature workload."""
    from lidarshape import cli

    w = workloads.WORKLOADS[name]
    root = scratch(f"outputs-{name}")
    meta = w.generate(seed, root)
    out = root / "out"
    with contextlib.redirect_stdout(None):
        assert cli.main(w.argv(root, out)) == 0
    return w, meta, out


def test_checks_catch_broken_outputs():
    with miniature():
        w, meta, out = _in_process_outputs("objects-hsd")
        assert w.check(out, meta)[0] == []
        path = out / "distance_matrix_average_hsd.csv"
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[2] = "0.5" if cells[2] != "0.5" else "0.25"
        path.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
        assert any("not symmetric" in p for p in w.check(out, meta)[0])

        w, meta, out = _in_process_outputs("cloud-large")
        problems, l1 = w.check(out, meta)
        assert problems == [] and 0 < l1 < 2
        path = next(out.glob("features_*.csv"))
        text = path.read_text().splitlines()
        last = text[-1].split(",")
        last[-1] = repr(float(last[-1]) + 1e-6)
        path.write_text("\n".join(text[:-1] + [",".join(last)]) + "\n")
        assert any("sums to" in p for p in w.check(out, meta)[0])

        w, meta, out = _in_process_outputs("spin-parts")
        assert w.check(out, meta)[0] == []
        labels = out / "labels.csv"
        labels.write_text(labels.read_text() + f"{workloads.SPIN_POINTS},{workloads.PARTS_K}\n")
        assert any("labels.csv" in p for p in w.check(out, meta)[0])

        w, meta, out = _in_process_outputs("street-roi")
        assert w.check(out, meta)[0] == []
        roi_csv = out / "roi.csv"
        roi_csv.write_text(roi_csv.read_text().replace(",refined\n", ",basic\n", 1))
        assert any("refined tiles" in p for p in w.check(out, meta)[0])

        w, meta, out = _in_process_outputs("group-align")
        problems, misaligned = w.check(out, meta)
        assert problems == [] and misaligned >= 0
        merges = out / "merges.csv"
        merges.write_text("".join(merges.read_text().splitlines(keepends=True)[:-1]))
        assert any("merges.csv" in p for p in w.check(out, meta)[0])
        transforms = out / "transforms.csv"
        head, first, *rest = transforms.read_text().splitlines(keepends=True)
        transforms.write_text("".join([head, "0,nan,0,0,0\n", *rest]))
        assert any("transforms.csv" in p for p in w.check(out, meta)[0])


def test_miniature_run_of_every_workload():
    expect = {
        "objects-hsd": lambda m: (m["shapedist.hsd.calls"] == 4 * 2 * 2
                                  and m["octree.build_octree.points"] == 4 * 60),
        "cloud-large": lambda m: (m["core.load_cloud.points"] == 3_000
                                  and m["shapedist.hsd.votes"] > 0 and m["octree.reps"] > 0),
        "street-roi": lambda m: (m["roi.tiles"] == 12 * 12
                                 and m["roi.tiles_refined"] == min(3, m["roi.tiles_basic"])),
        "group-align": lambda m: (m["alignment.icp_4dof.calls"] == 6 - 1
                                  and m["core.emd_1d.calls"] == 5 * math.comb(6, 2)
                                  and m["shapedist.exact_sd.tuples"] == 6 * math.comb(80, 2)),
        "spin-parts": lambda m: m["spinimage.spin_images.images"] == 60,
    }
    with miniature():
        for name in workloads.WORKLOADS:
            session = run.Session(name, 5)
            try:
                timed = run.timed_run(session, 0.0)
                assert timed["failed"] == 0, (name, session.problems)
                assert timed["attempted"] == run.MIN_SAMPLES
                assert sorted(timed["metrics"]) == sorted(run.END_TO_END)
                assert all(v > 0 for v in timed["metrics"].values()), (name, timed["metrics"])
                traced = run.traced_run(session, 0.0)
                assert traced["failed"] == 0, (name, session.problems)
                assert sorted(traced["metrics"]) == sorted(run.per_layer_units())
                assert expect[name](traced["metrics"]), (name, traced["metrics"])
                assert all(v == 0 for k, v in traced["metrics"].items() if k.endswith(".errors"))
                # CLI children and in-process runs wrote the same bytes
                assert len(set(session.digests)) == 1, name
                if session.workload.quality:
                    assert math.isfinite(session.quality), name
            finally:
                session.close()


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    shutil.rmtree(measure.WORK / "selftest", ignore_errors=True)
    print(f"{len(tests)} self-tests passed")
