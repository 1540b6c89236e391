"""Every workload's end-to-end and per-layer metrics in one report.

    python3 perfbench/report.py --seed 1

Inputs for every workload are made from `--seed` first. Then each round runs
every workload once (an import-only child, then one CLI child), in an order
that rotates by one workload per round, so that drifts of a shared host fall
on all workloads alike; only one child runs at a time. After the rounds,
each workload gets one traced in-process run of about TRACE_SECONDS.

The report prints, by workload, every end-to-end metric with its unit,
median, quartiles and sample count, the failure rate and the quality figure,
then the per-layer metrics, then which end-to-end metric and workload each
layer should move. The whole record is written as JSON to `--out`.
"""

from __future__ import annotations

import os

from measure import THREAD_VARS

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import sys
from pathlib import Path

import measure
from measure import WORK
from run import (END_TO_END, Session, cli_child, end_to_end, per_layer_units, require_program,
                 setup_child, traced_run)
from workloads import WORKLOADS

ROUNDS = 8  # each round runs every workload once
TRACE_SECONDS = 10.0  # length of each workload's traced run

# layer -> (its per-layer metrics, what a change to it should move, where it should not)
MAPPING = {
    "core": ("load_cloud.s, load_cloud.points, save_cloud.s, emd_1d.calls, emd_1d.s",
             "load_cloud: run_s on street-roi and cloud-large; emd_1d and save_cloud: "
             "run_s on group-align",
             "objects-hsd"),
    "octree": ("build_octree.s, build_octree.points, reps",
               "run_s and peak_rss_mb on cloud-large",
               "objects-hsd (about 0)"),
    "shapedist": ("hsd.{D2,A3,T3,R3}.s, hsd.calls, hsd.votes, hsd.call_ms.p50/p90, "
                  "exact_sd.{D2,A3,T3,R3}.s, exact_sd.tuples",
                  "hsd: run_s on objects-hsd and cloud-large, bounds separation_ratio and "
                  "hsd_l1; exact_sd: run_s on group-align",
                  "street-roi, spin-parts"),
    "evaluate": ("load_manifest.s, dataset_features.self_s, distance_matrix.s, "
                 "distance_matrix.self_s, group_stats.s, write_s",
                 "run_s on objects-hsd (under 1% at this size)",
                 "all other workloads"),
    "alignment": ("similarity_matrix.s, similarity_matrix.self_s, icp_4dof.calls, icp_4dof.s, "
                  "align_group.self_s, write_s",
                  "run_s and align_misaligned on group-align",
                  "all other workloads"),
    "roi": ("build_grid.s, tile_features.s, refine_roi.s, write_s, tiles, tiles_basic, "
            "tiles_refined",
            "run_s, peak_rss_mb and roi_recall on street-roi",
            "all other workloads"),
    "spinimage": ("spin_images.s, spin_images.images, train_codebook.s, encode_all.s, "
                  "cluster_parts.s",
                  "run_s on spin-parts",
                  "all other workloads"),
}


def _fmt(x) -> str:
    return "-" if x is None else f"{x:.6g}"


def rounds(sessions, n_rounds: int) -> dict:
    names = list(sessions)
    for s in sessions.values():
        measure.import_child(s.dir / "warm.log")  # compiles bytecode once, as an install does
    setups = {n: [] for n in names}
    children = {n: [] for n in names}
    for r in range(n_rounds):
        order = names[r % len(names):] + names[: r % len(names)]
        for name in order:
            setups[name].append(setup_child(sessions[name]))
            children[name].append(cli_child(sessions[name]))
        print(f"round {r + 1}/{n_rounds}: {' '.join(order)}", file=sys.stderr, flush=True)
    return {n: end_to_end(sessions[n], setups[n], children[n]) for n in names}


def print_report(record: dict) -> None:
    env = record["environment"]
    print(f"commit {env['commit']}  seed {record['seed']}  nproc {env['nproc']}  "
          f"python {env['python']}  numpy {env['numpy']}  scipy {env['scipy']}")
    print(f"load average before {record['loadavg_before']}  after {record['loadavg_after']}")
    print(f"{record['rounds']} rounds, rotating order, one child at a time, "
          f"{', '.join(THREAD_VARS)} = 1\n")
    print("END TO END (tracing off)")
    print(f"{'workload':<12} {'metric':<18} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}")
    for name, res in record["workloads"].items():
        for metric, unit in END_TO_END.items():
            d = res["distributions"][metric]
            value = res["metrics"][metric]
            print(f"{name:<12} {metric:<18} {unit:<8} {_fmt(value):>12} {_fmt(d['q1']):>12} "
                  f"{_fmt(d['q3']):>12} {d['n']:>3}")
        print(f"{name:<12} {'fail_rate':<18} {'share':<8} {_fmt(res['fail_rate']):>12} "
              f"{'':>12} {'':>12} {res['attempted']:>3}")
        for q, v in res["quality"].items():
            print(f"{name:<12} {q:<18} {'':<8} {_fmt(v):>12} {'(deterministic for the seed)':>29}")
        print(f"{name:<12} items: {res['items']} {res['item_kind']}, outputs sha256 {res['digest']}")
        for problem in res["problems"]:
            print(f"{name:<12} FAILED CHECK {problem}")
    print("\nPER LAYER (one traced in-process run per workload; zero rows omitted)")
    units = per_layer_units()
    for name, res in record["traced"].items():
        print(f"{name}: {res['attempted']} runs, {res['failed']} failed")
        for metric, value in res["metrics"].items():
            if value:
                print(f"  {metric:<38} {_fmt(value):>12} {units[metric]}")
    print("\nLAYER -> END-TO-END METRIC -> WORKLOAD")
    for layer, (metrics, moves, unmoved) in MAPPING.items():
        print(f"{layer}: {metrics}\n    moves: {moves}\n    no effect expected: {unmoved}")
    print("  unattributed: cli.other_s (traced wall minus top-level layer spans), "
          "trace.overhead_s (traced minus plain in-process wall)")
    print("\nDROPPED WORKLOADS: none")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=WORK / "report.json")
    args = parser.parse_args(argv)
    require_program()
    record = {"seed": args.seed, "rounds": ROUNDS, "loadavg_before": measure.loadavg(),
              "environment": measure.environment()}
    sessions = {}
    try:
        for name in WORKLOADS:
            sessions[name] = Session(name, args.seed)
        record["workloads"] = rounds(sessions, ROUNDS)
        record["traced"] = {}
        for name, session in sessions.items():
            record["traced"][name] = traced_run(session, TRACE_SECONDS)
            print(f"traced {name}", file=sys.stderr, flush=True)
        for name, session in sessions.items():
            res = record["workloads"][name]
            res.update({"items": session.meta["items"], "item_kind": session.workload.items,
                        "quality": ({session.workload.quality: session.quality}
                                    if session.workload.quality else {}),
                        "digest": session.digests[0] if session.digests else None,
                        "problems": session.problems[:20]})
    finally:
        for session in sessions.values():
            session.close()
    record["loadavg_after"] = measure.loadavg()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True))
    print_report(record)
    print(f"\nrecord written to {args.out}")
    failed = sum(r["failed"] for r in record["workloads"].values())
    failed += sum(r["failed"] for r in record["traced"].values())
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
