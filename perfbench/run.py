#!/usr/bin/env python3
"""Grid-search benchmark for minclue.

    python3 perfbench/run.py --workload search9-k12 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  Each workload is one closed-loop client: it hands the program one
grid (or, for the farm, one catalogue) and waits for the result before the
next.  Work is done in whole passes over the workload's grid pool, so every
pass searches the same base grids under fresh seeded digit permutations, and
passes repeat while the next one is expected to end within `--seconds`.
Every result is checked against `reference.json`.

`--trace 0` prints the end-to-end metrics of BENCHMARK.json.  `--trace 1`
searches one pass with every grid twice, traced and untraced, and prints
the per-layer metrics; the two copies give `trace.overhead_ratio`.  The last
line of standard output is the JSON result; the exit code is 0 only when
every result was correct and no count drifted.

Other modes: `--self-test` shows the correctness gate and the drift check
rejecting corrupted results; `--make-reference` recomputes
`reference.json` with the program in `src/`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable, Dict, List, Optional

from gate import REFERENCE_PATH, check_report, count_drift, load_reference, mask_digest
from grids import Input, base_pool, make_inputs

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 7


@dataclass(frozen=True)
class Workload:
    name: str
    box_rows: int
    box_cols: int
    k: int
    max_set_size: Optional[int]  # SearchConfig override; None keeps the default
    pool_seed: int
    pool_size: int
    farm_workers: int = 0  # 0: call search_grid in this process
    farm_batch: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("search9-k12", 3, 3, 12, 8, pool_seed=1, pool_size=2),
        Workload("search6-k9", 2, 3, 9, None, pool_seed=1, pool_size=2),
        Workload("farm6-k7", 2, 3, 7, None, pool_seed=1, pool_size=24,
                 farm_workers=2, farm_batch=2),
        # used by --self-test only
        Workload("selftest4-k4", 2, 2, 4, None, pool_seed=1, pool_size=4),
    )
}


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "minclue" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {src}")
    sys.path.insert(0, str(src))


def search_config(wl: Workload):
    from minclue.checker import SearchConfig

    return SearchConfig(max_set_size=wl.max_set_size)


def setup_inputs(wl: Workload, seed: int) -> List[Input]:
    """What a run does before its first timed grid: import the program,
    select the backend, and generate the first pass of inputs."""
    from minclue import backend, checker, cli, grid  # noqa: F401

    pool = base_pool(wl.box_rows, wl.box_cols, wl.pool_seed, wl.pool_size)
    inputs = make_inputs(pool, seed, 0)
    for inp in inputs:
        grid.parse_grid(inp.line)
    return inputs


def measure_setup(wl: Workload, seed: int) -> float:
    """Median over SETUP_PROBES fresh interpreters of the set-up time each
    measures from just before it imports the program."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
            "--workload", wl.name, "--seed", str(seed)]
    times = [
        float(subprocess.run(argv, check=True, cwd=ROOT, timeout=60,
                             capture_output=True, text=True).stdout)
        for _ in range(SETUP_PROBES)
    ]
    return statistics.median(times)


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


@dataclass
class Outcome:
    """What the timed passes of one run produced."""

    attempted: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    passes: int = 0
    grid_s: List[float] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)  # one per failed grid
    drift: List[str] = field(default_factory=list)


def time_search(wl: Workload, inp: Input, config):
    """Search one input; return (seconds, report or the exception raised)."""
    from minclue import checker
    from minclue.grid import parse_grid

    started = time.perf_counter()
    try:
        report = checker.search_grid(parse_grid(inp.line), wl.k, config)
    except Exception as exc:  # a failed grid, counted and reported
        report = exc
    return time.perf_counter() - started, report


def gate(out: Outcome, inp: Input, report, reference: dict) -> None:
    out.attempted += 1
    if isinstance(report, Exception):
        out.failures.append(f"base grid {inp.base}: search raised {report!r}")
        return
    reason = check_report(report, inp, reference)
    if reason:
        out.failures.append(f"base grid {inp.base}: {reason}")


def run_search(wl: Workload, seed: int, seconds: float, reference: dict,
               corrupt: Optional[Callable] = None) -> Outcome:
    config = search_config(wl)
    out = Outcome()
    while True:
        inputs = make_inputs(reference["pool"], seed, out.passes)
        results = []
        cpu0, started = cpu_seconds(), time.perf_counter()
        for inp in inputs:
            elapsed, report = time_search(wl, inp, config)
            out.grid_s.append(elapsed)
            results.append((inp, report))
        out.wall_s += time.perf_counter() - started
        out.cpu_s += cpu_seconds() - cpu0
        out.passes += 1
        for inp, report in results:
            gate(out, inp, corrupt(report) if corrupt else report, reference)
        if out.wall_s * (out.passes + 1) / out.passes > seconds:
            return out


@dataclass
class FarmPass:
    wall_s: float
    reports: list


def farm_pass(wl: Workload, inputs: List[Input], work_dir: Path, tag: str,
              out: Outcome, reference: dict) -> FarmPass:
    """One `minclue farm` call on a fresh catalogue of `inputs`, then
    `merge_outputs`.  Every grid without a correct merged report fails, and
    so does every grid of a call that left batches pending or whose merge
    disagreed."""
    from minclue import cli, taskfarm

    catalogue = work_dir / f"catalogue-{tag}.txt"
    catalogue.write_text("".join(inp.line + "\n" for inp in inputs), encoding="ascii")
    argv = [
        "farm", str(catalogue), "--k", str(wl.k),
        "--workers", str(wl.farm_workers), "--batch", str(wl.farm_batch),
        "--checkpoint", str(work_dir / f"checkpoint-{tag}.txt"),
        "--out", str(work_dir / f"out-{tag}.txt"),
    ]
    captured = io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(captured):
        status = cli.main(argv)
    wall_s = time.perf_counter() - started
    summary = captured.getvalue().strip()
    pending = re.search(r"\bpending (\d+)\b", summary)
    problem = None
    if status != 0 or pending is None or int(pending.group(1)):
        problem = f"farm exit code {status}, summary {summary!r}"
    try:
        reports = taskfarm.merge_outputs(work_dir / f"out-{tag}.txt")
    except Exception as exc:  # a conflicting merge fails the whole pass
        reports, problem = [], f"merge_outputs raised {exc!r}"
    by_grid = {r.grid: r for r in reports if hasattr(r, "grid")}
    for inp in inputs:
        report = by_grid.get(inp.line)
        if problem or report is None:
            out.attempted += 1
            out.failures.append(f"base grid {inp.base}: {problem or 'no merged farm report'}")
        else:
            gate(out, inp, report, reference)
    return FarmPass(wall_s, reports)


def run_farm(wl: Workload, seed: int, seconds: float, reference: dict,
             work_dir: Path) -> Outcome:
    out = Outcome()
    while True:
        inputs = make_inputs(reference["pool"], seed, out.passes)
        cpu0 = cpu_seconds()
        done = farm_pass(wl, inputs, work_dir, f"pass{out.passes}", out, reference)
        out.cpu_s += cpu_seconds() - cpu0
        out.wall_s += done.wall_s
        out.grid_s += [r.elapsed_ms / 1000 for r in done.reports]
        out.passes += 1
        if out.wall_s * (out.passes + 1) / out.passes > seconds:
            return out


def tail(values: List[float]):
    """(value, label): the highest percentile with at least ten samples
    beyond it, or the maximum when fewer than 20 samples make that
    percentile fall below the median."""
    n = len(values)
    if n < 20:
        return max(values), f"max of {n} grids (fewer than 20)"
    p = (100 * (n - 10)) // n
    value = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return value, f"p{p} of {n} grids"


def end_to_end(wl: Workload, out: Outcome, setup_s: float) -> Dict[str, tuple]:
    """metric -> (value, note)."""
    grids = len(out.grid_s)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    rss_note = "this process"
    if wl.farm_workers:
        rss_kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        rss_note = "this process plus the largest farm worker"
    tail_s, tail_note = tail(out.grid_s)
    return {
        "grids_per_s": (grids / out.wall_s,
                        f"{grids} grids in {out.wall_s:.2f} s, {out.passes} passes"),
        "grid_s_p50": (statistics.median(out.grid_s), f"median of {grids} grids"),
        "grid_s_tail": (tail_s, tail_note),
        "core_s_per_grid": (out.cpu_s / grids, "user+sys, process and children"),
        "setup_s": (setup_s, f"median of {SETUP_PROBES} fresh interpreters"),
        "peak_rss_mb": (rss_kb / 1024, rss_note),
    }


# ---------------------------------------------------------------------------
# traced run

@dataclass
class Traced:
    plain_s: List[float]
    traced_s: List[float]
    metrics: Dict[str, float]
    shares: Dict[str, float]
    span_lists: List[list]


def trace_search(wl: Workload, seed: int, reference: dict, out: Outcome,
                 work_dir: Path) -> Traced:
    import tracing

    config = search_config(wl)
    tracer = tracing.Tracer()
    plain, traced_s = [], []
    reports = []
    inputs = make_inputs(reference["pool"], seed, 0)
    for i, inp in enumerate(inputs):
        # alternate which copy runs first, so neither always runs warm
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracing.traced(tracer, work_dir):
                    elapsed, report = time_search(wl, inp, config)
                traced_s.append(elapsed)
                reports.append(report)
            else:
                elapsed, report = time_search(wl, inp, config)
                plain.append(elapsed)
            gate(out, inp, report, reference)
    totals = tracing.SpanTotals()
    totals.add(tracer.spans)
    return _traced_result(plain, traced_s, totals, tracer.counts, reports,
                          [tracer.spans], farm={})


def trace_farm(wl: Workload, seed: int, reference: dict, out: Outcome,
               work_dir: Path) -> Traced:
    import tracing

    inputs = make_inputs(reference["pool"], seed, 0)
    tracer = tracing.Tracer()
    spans_dir = work_dir / "spans"
    spans_dir.mkdir()

    def traced_pass() -> FarmPass:
        with tracing.traced(tracer, spans_dir):
            return farm_pass(wl, inputs, work_dir, "traced", out, reference)

    # the seed decides which call runs first, so neither always runs warm
    if seed % 2:
        plain = farm_pass(wl, inputs, work_dir, "plain", out, reference)
        done = traced_pass()
    else:
        done = traced_pass()
        plain = farm_pass(wl, inputs, work_dir, "plain", out, reference)
    totals = tracing.SpanTotals()
    totals.add(tracer.spans)
    counts = Counter(tracer.counts)
    span_lists = [tracer.spans]
    for dump in tracing.load_worker_dumps(spans_dir):
        totals.add(dump["spans"])
        counts.update(dump["counts"])
        span_lists.append(dump["spans"])
    if len(span_lists) == 1:
        print("# warning: no spans came back from the farm workers", flush=True)
    busy = sum(r.elapsed_ms for r in done.reports) / 1000
    capacity = wl.farm_workers * done.wall_s
    farm = {
        "taskfarm.busy_ratio": busy / capacity,
        "taskfarm.wait_s": capacity - busy,
        "taskfarm.checkpoint_saves": totals.calls["checkpoint_save"],
        "taskfarm.checkpoint_s": totals.dur["checkpoint_save"],
        "taskfarm.merge_s": totals.dur["merge_outputs"],
    }
    return _traced_result(
        [r.elapsed_ms / 1000 for r in plain.reports],
        [r.elapsed_ms / 1000 for r in done.reports],
        totals, counts, done.reports, span_lists, farm,
    )


def _traced_result(plain, traced_s, totals, counts, reports, span_lists, farm):
    import tracing

    metrics = tracing.layer_metrics(totals, counts)
    candidates = sum(getattr(r, "candidates", 0) for r in reports)
    proper = sum(getattr(r, "proper_found", 0) for r in reports)
    metrics["checker.candidates"] = candidates
    metrics["checker.proper_ratio"] = proper / candidates if candidates else 0.0
    for name in ("busy_ratio", "wait_s", "checkpoint_saves", "checkpoint_s", "merge_s"):
        metrics[f"taskfarm.{name}"] = farm.get(f"taskfarm.{name}", 0)
    metrics["trace.overhead_ratio"] = statistics.median(traced_s) / statistics.median(plain)
    metrics["checker.proper"] = proper
    return Traced(plain, traced_s, metrics, tracing.layer_shares(totals), span_lists)


def source_digest() -> str:
    """Short sha256 of every file under src/, so that counts saved by one
    version of the program are never compared with another's."""
    h = hashlib.sha256()
    for path in sorted(p for p in (ROOT / "src").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def check_drift(wl: Workload, seed: int, counts: Dict[str, int], out: Outcome) -> None:
    """Compare this traced run's counts with the last traced run of the same
    workload, seed and program source, then keep them for the next."""
    path = WORK / f"counts-{wl.name}-seed{seed}-src{source_digest()}.json"
    if path.exists():
        with open(path, encoding="ascii") as fh:
            before = json.load(fh)
        out.drift += count_drift(before, counts)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)


# ---------------------------------------------------------------------------
# environment and output

def environment() -> dict:
    from minclue.backend import backend_name

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    revision = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                 capture_output=True, text=True)
            if got.returncode == 0:
                revision = got.stdout.strip()
    return {
        "backend": backend_name(),
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git": revision,
        "loadavg": os.getloadavg(),
        "CHECKER_THREADS": os.environ.get("CHECKER_THREADS"),
    }


def load_metric_table(trace: bool) -> List[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def emit(table: List[dict], values: Dict[str, tuple], out: Outcome) -> int:
    """Print the metric table and the JSON result line; return exit code."""
    metrics = {}
    for entry in table:
        value, note = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:28s} {value:14.6g} {entry['unit']:6s} {note}")
    failed = len(out.failures)
    print(f"{'failed_ratio':28s} {failed / max(out.attempted, 1):14.6g} {'':6s}"
          f" {failed} failed of {out.attempted} grids attempted")
    for reason in out.failures:
        print(f"# FAILED {reason}")
    for line in out.drift:
        print(f"# COUNT DRIFT {line}")
    correct = failed == 0 and not out.drift
    print(json.dumps({"correct": correct, "attempted": max(out.attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def traced_values(wl: Workload, seed: int, reference: dict, work_dir: Path,
                  table: List[dict]):
    """The traced run: (outcome, metric -> (value, note))."""
    import tracing

    out = Outcome()
    tracer_run = trace_farm if wl.farm_workers else trace_search
    result = tracer_run(wl, seed, reference, out, work_dir)
    counts = {e["name"]: result.metrics[e["name"]] for e in table if e["unit"] == "count"}
    counts["checker.proper"] = result.metrics["checker.proper"]
    check_drift(wl, seed, counts, out)
    tracing.write_spans(WORK / f"spans-{wl.name}-seed{seed}.tsv", result.span_lists)
    shares = ", ".join(f"{k} {v:.1%}" for k, v in result.shares.items())
    print(f"# share of grid time: {shares}")
    values = {name: (v, "") for name, v in result.metrics.items()}
    values["trace.overhead_ratio"] = (
        result.metrics["trace.overhead_ratio"],
        f"median {statistics.median(result.traced_s):.4f} s traced / "
        f"{statistics.median(result.plain_s):.4f} s untraced, "
        f"{len(result.plain_s)} grids",
    )
    return out, values


def run(args) -> int:
    wl = WORKLOADS[args.workload]
    reference = load_reference(wl.name)
    if reference["pool"] != base_pool(wl.box_rows, wl.box_cols, wl.pool_seed,
                                      wl.pool_size):
        sys.exit("perfbench: the grid generator no longer makes the reference pool")
    table = load_metric_table(args.trace)
    print(f"# perfbench {wl.name} seed {args.seed} trace {args.trace}")
    print(f"# env {json.dumps(environment())}", flush=True)
    WORK.mkdir(exist_ok=True)
    work_dir = WORK / f"{wl.name}-seed{args.seed}-pid{os.getpid()}"
    work_dir.mkdir()
    try:
        if args.trace:
            out, values = traced_values(wl, args.seed, reference, work_dir, table)
        else:
            setup_s = measure_setup(wl, args.seed)
            if wl.farm_workers:
                out = run_farm(wl, args.seed, args.seconds, reference, work_dir)
            else:
                out = run_search(wl, args.seed, args.seconds, reference)
            if not out.grid_s:
                for reason in out.failures:
                    print(f"# FAILED {reason}")
                return 1
            values = end_to_end(wl, out, setup_s)
        return emit(table, values, out)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# self-test and reference

def self_test() -> int:
    """Show that the gate rejects wrong results and the drift check fires."""
    from minclue.checker import search_grid
    from minclue.grid import CellSet, parse_grid

    wl = WORKLOADS["selftest4-k4"]
    reference = load_reference(wl.name)
    inputs = make_inputs(reference["pool"], 7, 0)
    inp, other = inputs[0], inputs[1]
    report = search_grid(parse_grid(inp.line), wl.k, search_config(wl))
    puzzles = report.proper_puzzles
    if not puzzles:
        print("self-test needs a grid with proper puzzles")
        return 1
    shape = puzzles[0].shape
    proper_masks = {p.mask for p in puzzles}
    outsider = next(
        mask
        for mask in (sum(1 << c for c in cells)
                     for cells in combinations(range(shape.cell_count), wl.k))
        if mask not in proper_masks
    )
    replace = dataclasses.replace
    cases = [
        ("correct result", report, True),
        ("one proper puzzle dropped",
         replace(report, proper_found=len(puzzles) - 1, proper_puzzles=puzzles[1:]),
         False),
        ("one proper puzzle swapped for another clue set",
         replace(report, proper_puzzles=(CellSet(shape, outsider),) + puzzles[1:]),
         False),
        ("one safety failure", replace(report, safety_failures=1), False),
        ("report of another grid", replace(report, grid=other.line), False),
    ]
    ok = True
    for label, candidate, should_pass in cases:
        reason = check_report(candidate, inp, reference)
        good = (reason is None) == should_pass
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} gate, {label}: {reason or 'accepted'}")

    dropped = run_search(wl, 7, 0, reference,
                         corrupt=lambda r: replace(r, proper_puzzles=r.proper_puzzles[1:],
                                                   proper_found=r.proper_found - 1))
    good = len(dropped.failures) == dropped.attempted > 0
    ok &= good
    print(f"{'PASS' if good else 'FAIL'} run with a puzzle dropped from every"
          f" report: {len(dropped.failures)} of {dropped.attempted} grids failed")

    counts = {"hitting.nodes": 10, "hitting.degree_cuts.d2": 3}
    drift = count_drift(counts, dict(counts, **{"hitting.degree_cuts.d2": 4}))
    good = drift == ["hitting.degree_cuts.d2: 3 -> 4"] and not count_drift(counts, counts)
    ok &= good
    print(f"{'PASS' if good else 'FAIL'} drift check: {drift}")
    return 0 if ok else 1


def make_reference() -> int:
    from minclue.checker import search_grid
    from minclue.grid import parse_grid

    table = {}
    for wl in WORKLOADS.values():
        pool = base_pool(wl.box_rows, wl.box_cols, wl.pool_seed, wl.pool_size)
        proper = []
        for line in pool:
            started = time.perf_counter()
            report = search_grid(parse_grid(line), wl.k, search_config(wl))
            if report.safety_failures:
                sys.exit(f"perfbench: safety failures on {line}")
            masks = [p.mask for p in report.proper_puzzles]
            proper.append([len(masks), mask_digest(masks)])
            print(f"{wl.name} {line} proper {len(masks)} "
                  f"candidates {report.candidates} "
                  f"{time.perf_counter() - started:.2f} s", flush=True)
        table[wl.name] = {"k": wl.k, "pool": pool, "proper": proper}
    with open(REFERENCE_PATH, "w", encoding="ascii") as fh:
        json.dump(table, fh, indent=1)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w for w in WORKLOADS if "selftest" not in w])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--make-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    import_program()
    if args.setup_probe:
        started = time.perf_counter()
        setup_inputs(WORKLOADS[args.workload], args.seed)
        print(time.perf_counter() - started)
        return 0
    if args.self_test:
        return self_test()
    if args.make_reference:
        return make_reference()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
