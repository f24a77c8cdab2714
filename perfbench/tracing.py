"""Layer tracing from outside the program.

`traced(tracer, work_dir)` swaps, for the duration of a `with` block, the
names the checker imported from the other modules, the `kernels` attribute
of `unavoidable`, `solver` and `hitting`, `Checkpoint.save`,
`merge_outputs` and the farm's worker entry for timing wrappers.  Every
wrapped call records a span (name, start, end, parent, tag) in memory.  Farm workers are forked with the
wrappers in place; each writes its spans to `work_dir` after every batch.

A span's self time is its duration minus the durations of its children,
which nest and do not overlap because each process runs one thread.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List

from minclue import checker, hitting, solver, taskfarm, unavoidable

DEGREES = (2, 3, 4, 5)
_CHECKER_NAMES = (
    "search_grid",
    "find_minimal_unavoidable",
    "recheck_family",
    "build_cliques",
    "count_completions",
    "verify_two_completions",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []  # [name, start, end, parent index, tag]
        self.stack: List[int] = []
        self.counts: Counter = Counter()

    def clear(self) -> None:
        del self.spans[:]
        self.stack.clear()
        self.counts.clear()

    def wrap(self, name, fn, tag_of=None, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tag = tag_of(*args) if tag_of else None
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, tag])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result, tag)
            return result

        return wrapper

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


class _KernelProxy:
    """Stands in for a backend module, timing its three entry points."""

    def __init__(self, tracer: Tracer, real) -> None:
        self._real = real
        self._counts = tracer.counts
        t = tracer
        self.solve_limit = t.wrap("solve_limit", real.solve_limit)
        self.run_hitting = t.wrap(
            "run_hitting", real.run_hitting, on_result=self._engine_stats
        )
        self.enumerate_diffs = t.wrap(
            "enumerate_diffs",
            real.enumerate_diffs,
            tag_of=_digit_subset_size,
            on_result=self._diff_count,
        )

    def __getattr__(self, name):
        return getattr(self._real, name)

    def _diff_count(self, diffs, dcount) -> None:
        self._counts[f"unavoidable.diffs.d{dcount}"] += len(diffs)

    def _engine_stats(self, stats, _tag) -> None:
        c = self._counts
        for key in ("nodes", "emitted", "selection_cuts", "consolidations"):
            c[f"hitting.{key}"] += stats[key]
        for d, cuts in stats["degree_cuts"].items():
            c[f"hitting.degree_cuts.d{d}"] += cuts


def _digit_subset_size(box_rows, box_cols, _digits, blank, *_rest) -> int:
    return bin(blank).count("1") // (box_rows * box_cols)


def _install(tracer: Tracer, work_dir: Path):
    """Swap in the wrappers; return the list of (owner, name, original)."""
    saved = []

    def swap(owner, name, new) -> None:
        saved.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    counts = tracer.counts

    def count_sets(family, _tag) -> None:
        counts["unavoidable.sets"] += len(family)

    def count_cliques(family, _tag) -> None:
        counts[f"unavoidable.cliques.d{family.degree}"] += len(family)

    hooks = {
        "find_minimal_unavoidable": count_sets,
        "build_cliques": count_cliques,
    }
    for name in _CHECKER_NAMES:
        real = getattr(checker, name)
        swap(checker, name, tracer.wrap(name, real, on_result=hooks.get(name)))

    real_engine = checker.enumerate_hitting_sets
    wrap_sink = functools.partial(tracer.wrap, "sink")

    def engine(instance, config=hitting.EngineConfig(), sink=None, stats=None):
        if sink is not None:
            sink = wrap_sink(sink)
        return real_engine(instance, config, sink, stats)

    swap(checker, "enumerate_hitting_sets",
         tracer.wrap("enumerate_hitting_sets", engine))

    proxy = _KernelProxy(tracer, unavoidable.kernels)
    for module in (unavoidable, solver, hitting):
        swap(module, "kernels", proxy)

    swap(taskfarm.Checkpoint, "save",
         tracer.wrap("checkpoint_save", taskfarm.Checkpoint.save))
    swap(taskfarm, "merge_outputs",
         tracer.wrap("merge_outputs", taskfarm.merge_outputs))

    real_batch = taskfarm._run_batch

    @functools.wraps(real_batch)
    def run_batch(args):
        # runs in a forked worker: keep only this batch's spans
        tracer.clear()
        result = real_batch(args)
        tracer.dump(work_dir / f"worker-{os.getpid()}-{args[0]}.json")
        return result

    swap(taskfarm, "_run_batch", run_batch)
    return saved


@contextlib.contextmanager
def traced(tracer: Tracer, work_dir: Path):
    saved = _install(tracer, work_dir)
    try:
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def load_worker_dumps(work_dir: Path) -> List[dict]:
    out = []
    for path in sorted(work_dir.glob("worker-*.json")):
        with open(path, encoding="ascii") as fh:
            out.append(json.load(fh))
    return out


class SpanTotals:
    """Duration, self time and call count per span name, summed over
    span lists from any number of processes."""

    def __init__(self) -> None:
        self.dur: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.dur_by_tag: Dict[tuple, float] = defaultdict(float)

    def add(self, spans: List[list]) -> None:
        covered = [0.0] * len(spans)
        for name, start, end, parent, _tag in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _parent, tag), child in zip(spans, covered):
            self.dur[name] += end - start
            self.self_s[name] += end - start - child
            self.calls[name] += 1
            if tag is not None:
                self.dur_by_tag[name, tag] += end - start


def layer_metrics(totals: SpanTotals, counts: Counter) -> Dict[str, float]:
    """The per-layer table, by metric name, from span totals and counts."""
    dur, own, calls = totals.dur, totals.self_s, totals.calls
    m: Dict[str, float] = {}
    for d in DEGREES:
        m[f"unavoidable.diff_s.d{d}"] = totals.dur_by_tag["enumerate_diffs", d]
        m[f"unavoidable.diffs.d{d}"] = counts[f"unavoidable.diffs.d{d}"]
    m["unavoidable.find_self_s"] = own["find_minimal_unavoidable"]
    m["unavoidable.sets"] = counts["unavoidable.sets"]
    m["unavoidable.recheck_s"] = dur["recheck_family"]
    m["unavoidable.clique_s"] = dur["build_cliques"]
    for d in DEGREES:
        m[f"unavoidable.cliques.d{d}"] = counts[f"unavoidable.cliques.d{d}"]
    m["hitting.engine_self_s"] = own["enumerate_hitting_sets"] + own["run_hitting"]
    for key in ("nodes", "emitted"):
        m[f"hitting.{key}"] = counts[f"hitting.{key}"]
    for d in DEGREES:
        m[f"hitting.degree_cuts.d{d}"] = counts[f"hitting.degree_cuts.d{d}"]
    for key in ("selection_cuts", "consolidations"):
        m[f"hitting.{key}"] = counts[f"hitting.{key}"]
    nodes = counts["hitting.nodes"]
    m["hitting.emit_ratio"] = counts["hitting.emitted"] / nodes if nodes else 0.0
    m["solver.candidate_s"] = dur["count_completions"] + dur["verify_two_completions"]
    m["solver.calls"] = calls["count_completions"] + calls["verify_two_completions"]
    m["solver.wrapper_s"] = own["count_completions"]
    m["checker.self_s"] = own["search_grid"] + own["sink"]
    return m


def layer_shares(totals: SpanTotals) -> Dict[str, float]:
    """Each layer's share of the summed `search_grid` time."""
    dur, own = totals.dur, totals.self_s
    grid = dur["search_grid"]
    if not grid:
        return {}
    parts = {
        "unavoidable": dur["find_minimal_unavoidable"]
        + dur["recheck_family"]
        + dur["build_cliques"],
        "hitting": own["enumerate_hitting_sets"] + own["run_hitting"],
        "solver": dur["count_completions"] + dur["verify_two_completions"],
        "checker": own["search_grid"] + own["sink"],
    }
    return {name: t / grid for name, t in parts.items()}


def write_spans(path: Path, span_lists: List[List[list]]) -> None:
    """All spans as tab-separated lines: process, name, start, end, parent,
    tag (process 0 is the benchmark, the others are farm batches)."""
    with open(path, "w", encoding="ascii") as fh:
        for proc, spans in enumerate(span_lists):
            for name, start, end, parent, tag in spans:
                fh.write(f"{proc}\t{name}\t{start!r}\t{end!r}\t{parent}\t{tag}\n")
