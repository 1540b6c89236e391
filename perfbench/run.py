"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload objects-hsd --seed 1 --seconds 15 --trace 0

Run from anywhere inside a checkout that holds `src/lidarshape`. The inputs
are made from `--seed` before any timing starts. With `--trace 0` the run
starts CLI children one after another for `--seconds`, each after an
import-only child (which gives `setup_s`), and reports the end-to-end
metrics as medians over the children. With `--trace 1` it runs the
same command in-process, alternately plain and with every layer wrapped
(see spans.py), and reports the per-layer metrics. Every CLI output is
checked; the last line of standard output is
`{"correct", "attempted", "failed", "metrics"}`, and a line before it holds
the full record (quartiles, sample counts, digests, environment).
"""

from __future__ import annotations

import os

from measure import THREAD_VARS

# numerical libraries read these once, at import: set them before numpy loads
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import math
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import measure
from measure import SRC, WORK
from spans import COUNTED, LAYERS, TIMED, Tracer, layer_metrics
from workloads import QUALITY_UNITS, WORKLOADS, output_digest

MIN_SAMPLES = 3  # CLI children per timed run, even past --seconds

# Each end-to-end metric with its unit; `run.py --trace 0` reports all of them.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "items_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric with its unit; `run.py --trace 1` reports all of them."""
    units = {name: "s" for name in TIMED}
    units.update({name: "count" for name in COUNTED})
    units.update({f"{layer}.errors": "count" for layer in LAYERS})
    units.update({
        "shapedist.hsd.call_ms.p50": "ms",
        "shapedist.hsd.call_ms.p90": "ms",
        "cli.other_s": "s",
        "trace.overhead_s": "s",
    })
    units.update({f"quality.{q}": unit for q, unit in QUALITY_UNITS.items()})
    return units


def require_program() -> None:
    """Exit 2 unless the checkout holds the program's source."""
    if not (SRC / "lidarshape" / "cli.py").is_file():
        print(f"error: no lidarshape sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


class Session:
    """One workload's inputs for one seed, in a private work directory."""

    def __init__(self, workload: str, seed: int):
        self.workload = WORKLOADS[workload]
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.in_dir = self.dir / "in"
        self.in_dir.mkdir(parents=True)
        start = time.perf_counter()
        self.meta = self.workload.generate(seed, self.in_dir)
        self.generate_s = time.perf_counter() - start
        self.runs = 0
        self.digests: List[str] = []
        self.problems: List[str] = []
        self.quality: Optional[float] = None

    def out_dir(self) -> Path:
        self.runs += 1
        out = self.dir / f"out{self.runs}"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def argv(self, out: Path) -> List[str]:
        return self.workload.argv(self.in_dir, out)

    def check(self, out: Path, exit_code: int) -> bool:
        """Check one run's outputs; True when they pass."""
        problems = [] if exit_code == 0 else [f"exit code {exit_code}"]
        if exit_code == 0:
            try:
                found, quality = self.workload.check(out, self.meta)
            except (OSError, ValueError, IndexError) as exc:
                found, quality = [f"unreadable output: {exc!r}"], math.nan
            problems += found
            digest = output_digest(out)
            if self.digests and digest != self.digests[0]:
                problems.append("outputs differ from the first run with the same inputs")
            self.digests.append(digest)
            self.quality = quality
        self.problems += [f"run {self.runs}: {p}" for p in problems]
        shutil.rmtree(out, ignore_errors=True)
        return not problems

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def setup_child(session: Session) -> float:
    """Wall time of one import-only child."""
    return measure.import_child(session.dir / "import.log")["wall_s"]


def cli_child(session: Session) -> dict:
    """One CLI child, its outputs checked."""
    out = session.out_dir()
    child = measure.cli_child(session.argv(out), session.dir / f"cli{session.runs}.log")
    child["ok"] = session.check(out, child["exit"])
    return child


def end_to_end(session: Session, setups: List[float], children: List[dict]) -> dict:
    """End-to-end metrics (medians) and their distributions over the children."""
    ok = [c for c in children if c["exit"] == 0] or children
    walls = [c["wall_s"] for c in ok]
    items = session.meta["items"]
    dist = {
        "setup_s": measure.summary(setups),
        "run_s": measure.summary(walls),
        "items_per_s": measure.summary([items / w for w in walls]),
        "cpu_s": measure.summary([c["cpu_s"] for c in ok]),
        "peak_rss_mb": measure.summary([c["peak_rss_mb"] for c in ok]),
    }
    metrics = {name: dist[name]["median"] for name in END_TO_END}
    # the rate of the median run, so that items_per_s moves exactly with run_s
    metrics["items_per_s"] = items / metrics["run_s"]
    failed = sum(not c["ok"] for c in children)
    return {"attempted": len(children), "failed": failed, "fail_rate": failed / len(children),
            "metrics": metrics, "distributions": dist,
            "timed_out": sum(c["timed_out"] for c in children)}


def timed_run(session: Session, seconds: float) -> dict:
    """CLI children until `seconds` would be passed, each after an import-only
    child, so that set-up time is sampled over the whole run."""
    measure.import_child(session.dir / "warm.log")  # compiles bytecode once, as an install does
    setups, children = [], []
    start = time.perf_counter()
    while True:
        setups.append(setup_child(session))
        children.append(cli_child(session))
        elapsed = time.perf_counter() - start
        if len(children) >= MIN_SAMPLES and elapsed * (1 + 1 / len(children)) > seconds:
            break
    return end_to_end(session, setups, children)


def _in_process(session: Session, tracer=None) -> Tuple[int, bool]:
    """One CLI command in this process: its wall time (ns) and whether its
    outputs passed the checks."""
    from lidarshape import cli

    out = session.out_dir()
    sink = io.StringIO()
    wrapped = tracer if tracer is not None else contextlib.nullcontext()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), wrapped:
        start = time.perf_counter_ns()
        code = cli.main(session.argv(out))
        wall_ns = time.perf_counter_ns() - start
    return wall_ns, session.check(out, code)


def traced_run(session: Session, seconds: float) -> dict:
    """Pairs of plain and traced in-process runs after one warm-up run."""
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    _, ok = _in_process(session)  # first-call costs inside numpy/scipy, not the program's
    attempted, failed = 1, int(not ok)
    while True:
        plain_ns, ok_plain = _in_process(session)
        tracer = Tracer()
        traced_ns, ok_traced = _in_process(session, tracer)
        attempted += 2
        failed += (not ok_plain) + (not ok_traced)
        plain.append(plain_ns / 1e9)
        traced.append(traced_ns / 1e9)
        layers.append(layer_metrics(tracer, traced_ns))
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / (len(plain) + 1)) > seconds:
            break
    metrics = {name: statistics.median(run[name] for run in layers) for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    for q in QUALITY_UNITS:
        # 0 where the workload has no such figure, or its outputs failed the checks
        mine = q == session.workload.quality and math.isfinite(session.quality or math.nan)
        metrics[f"quality.{q}"] = session.quality if mine else 0.0
    return {"attempted": attempted, "failed": failed, "metrics": metrics,
            "plain_s": measure.summary(plain), "traced_s": measure.summary(traced)}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: inputs, measurement, checks, and the full record."""
    load_before = measure.loadavg()
    session = Session(workload, seed)
    try:
        result = (traced_run if trace else timed_run)(session, seconds)
    finally:
        session.close()
    units = per_layer_units() if trace else END_TO_END
    if sorted(result["metrics"]) != sorted(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(result['metrics']) ^ set(units))}")
    result.update({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "items": session.meta["items"],
        "item_kind": session.workload.items,
        "generate_s": session.generate_s,
        "quality": {session.workload.quality: session.quality} if session.workload.quality else {},
        "digest": session.digests[0] if session.digests else None,
        "problems": session.problems[:20],
        "environment": measure.environment(),
        "loadavg_before": load_before,
        "loadavg_after": measure.loadavg(),
    })
    return result


def result_line(result: dict, units: Dict[str, str]) -> str:
    """The last output line: correctness, attempts and metrics with units."""
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    print(result_line(result, per_layer_units() if args.trace else END_TO_END))
    return 0


if __name__ == "__main__":
    sys.exit(main())
