"""Local master/worker harness: batch the catalogue, dispatch first-come
first-served to worker processes, checkpoint after every recorded batch,
and resume cleanly after interruption.

The dispatcher is the only writer of the checkpoint and the output file.
Batches are acknowledged whole: a batch is either recorded (its frame is
complete in the output and its id is in the checkpoint) or it will run
again, so records may repeat across crashed-then-resumed runs but are
never lost or torn.  merge_outputs collapses the repeats, which differ at
most in their timings.
"""

from __future__ import annotations

import hashlib
import logging
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from .checker import (
    GridSearchError,
    GridSearchReport,
    ReportOrError,
    SearchConfig,
    format_report,
    parse_report,
    search_catalog,
)
from .config import config_digest, config_header_lines
from .errors import CheckpointMismatchError, ConflictingRecordsError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class WorkBatch:
    batch_id: int
    start: int  # first catalogue line index
    end: int  # one past the last


@dataclass
class Checkpoint:
    digest: str  # of the catalogue
    k: int
    n_batches: int
    config_digest: str
    done: Set[int] = field(default_factory=set)

    def save(self, path: Path) -> None:
        """Write-to-temporary then rename, so the file is never torn."""
        tmp = path.with_suffix(path.suffix + ".tmp")
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(
                f"catalog {self.digest} k {self.k} batches {self.n_batches}"
                f" config {self.config_digest}\n"
            )
            for batch_id in sorted(self.done):
                fh.write(f"done {batch_id}\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: Path) -> "Checkpoint":
        with open(path, encoding="ascii") as fh:
            lines = [ln.split() for ln in fh if ln.strip()]
        if not lines:
            raise CheckpointMismatchError(f"checkpoint {path} is empty")
        head = lines[0]
        if len(head) != 8 or head[0::2] != ["catalog", "k", "batches", "config"]:
            raise CheckpointMismatchError(
                f"malformed checkpoint header {' '.join(head)!r}; expected"
                " 'catalog D k K batches N config C' (older checkpoints lack"
                " the config digest and cannot be resumed)"
            )
        try:
            cp = cls(head[1], int(head[3]), int(head[5]), head[7])
            for tag, batch_id in lines[1:]:
                if tag != "done":
                    raise ValueError(tag)
                cp.done.add(int(batch_id))
        except ValueError:
            raise CheckpointMismatchError(f"malformed checkpoint {path}") from None
        outside = sorted(b for b in cp.done if not 0 <= b < cp.n_batches)
        if outside:
            raise CheckpointMismatchError(
                f"checkpoint {path} marks batches {outside} done, outside its"
                f" plan of {cp.n_batches} batches"
            )
        return cp


@dataclass(frozen=True)
class FarmSummary:
    batches_total: int
    done_before: int
    recorded_now: int
    pending_after: int
    elapsed_s: float
    safety_failures: int = 0  # summed over the reports recorded by this run
    errors: int = 0  # error records (malformed lines) recorded by this run


def plan_batches(n_lines: int, batch_size: int) -> List[WorkBatch]:
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    return [
        WorkBatch(i, start, min(start + batch_size, n_lines))
        for i, start in enumerate(range(0, n_lines, batch_size))
    ]


def catalogue_digest(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _worker_cap(requested: int) -> int:
    env = os.environ.get("CHECKER_THREADS", "").strip()
    if env.isdigit() and int(env) >= 1:
        return min(requested, int(env))
    return requested


def _run_batch(args) -> Tuple[List[str], int, int]:
    """Worker entry: search one batch of grid lines; returns the frame
    payload (one formatted report block per grid), the batch's summed
    safety failures and its number of error records, each of which names
    its line by its index in the catalogue.  `args` is (batch id, index of
    the batch's first line, lines, k, config); the id is unused here but
    names the batch to any wrapper of this entry."""
    _batch_id, start, lines, k, config = args
    blocks: List[str] = []
    failures = errors = 0
    for record in search_catalog(lines, k, config):
        if isinstance(record, GridSearchError):
            record = replace(record, line_no=start + record.line_no)
            errors += 1
        else:
            failures += record.safety_failures
        blocks.append(format_report(record))
    return blocks, failures, errors


def run_farm(
    catalogue_path,
    k: int,
    workers: int = 1,
    batch_size: int = 16,
    checkpoint_path=None,
    output_path=None,
    time_budget: Optional[float] = None,
    config: SearchConfig = SearchConfig(),
    max_batches: Optional[int] = None,
) -> FarmSummary:
    """Process every not-yet-done batch of the catalogue, recording each
    exactly once across invocations.

    `time_budget` (seconds) and `max_batches` both stop the run early;
    batches in flight at that point are abandoned (recorded by a later
    invocation).  A worker crash abandons its batch the same way.  A batch
    whose search raises is run once more; a second failure is raised.
    """
    catalogue_path = Path(catalogue_path)
    checkpoint_path = Path(checkpoint_path)
    output_path = Path(output_path)
    if workers < 1:
        raise ValueError("workers must be at least 1")
    started = time.monotonic()
    deadline = None if time_budget is None else started + time_budget

    lines = catalogue_path.read_text(encoding="ascii").splitlines()
    digest = catalogue_digest(catalogue_path)
    batches = plan_batches(len(lines), batch_size)
    pinned = config_digest(config)

    if checkpoint_path.exists():
        cp = Checkpoint.load(checkpoint_path)
        if cp.digest != digest:
            raise CheckpointMismatchError(
                "checkpoint was written for a different catalogue"
            )
        if cp.k != k or cp.n_batches != len(batches):
            raise CheckpointMismatchError(
                "checkpoint k or batch plan does not match this run"
            )
        if cp.config_digest != pinned:
            raise CheckpointMismatchError(
                "checkpoint was written with a different search configuration"
            )
    else:
        cp = Checkpoint(digest, k, len(batches), pinned)
        cp.save(checkpoint_path)
    if not output_path.exists() or output_path.stat().st_size == 0:
        with open(output_path, "w", encoding="ascii") as fh:
            fh.write("".join(line + "\n" for line in config_header_lines(config, k)))

    done_before = len(cp.done)
    pending = [b for b in batches if b.batch_id not in cp.done]
    recorded = 0
    safety_failures = errors = 0
    workers = _worker_cap(workers)

    def record(batch: WorkBatch, blocks: List[str]) -> None:
        nonlocal recorded
        with open(output_path, "a", encoding="ascii") as fh:
            fh.write(f"batch {batch.batch_id} range {batch.start} {batch.end}\n")
            for block in blocks:
                fh.write(block + "\n")
            fh.write(f"end batch {batch.batch_id}\n")
            fh.flush()
            os.fsync(fh.fileno())
        cp.done.add(batch.batch_id)
        cp.save(checkpoint_path)
        recorded += 1

    stopped = False
    if pending:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {}
            retried: Set[int] = set()
            queue = list(pending)

            def submit(batch: WorkBatch) -> None:
                payload = (
                    batch.batch_id, batch.start, lines[batch.start : batch.end],
                    k, config,
                )
                futures[pool.submit(_run_batch, payload)] = batch

            # prime the pool; workers pull the next batch as they finish
            for batch in queue[: workers * 2]:
                submit(batch)
            queue = queue[workers * 2 :]

            try:
                while futures and not stopped:
                    done_set, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for future in done_set:
                        batch = futures.pop(future)
                        try:
                            blocks, failures, batch_errors = future.result()
                        except BrokenProcessPool:
                            raise
                        except Exception:
                            if batch.batch_id in retried:
                                raise
                            logger.exception(
                                "batch %d failed; running it once more",
                                batch.batch_id,
                            )
                            retried.add(batch.batch_id)
                            queue.insert(0, batch)
                            continue
                        record(batch, blocks)
                        safety_failures += failures
                        errors += batch_errors
                        if max_batches is not None and recorded >= max_batches:
                            stopped = True
                            break
                        if deadline is not None and time.monotonic() >= deadline:
                            stopped = True
                            break
                    while not stopped and queue and len(futures) < workers * 2:
                        submit(queue.pop(0))
            except BrokenProcessPool:
                logger.error(
                    "worker pool broke; %d batches stay pending for resume",
                    len(futures) + len(queue),
                )
            finally:
                for future in futures:
                    future.cancel()

    return FarmSummary(
        batches_total=len(batches),
        done_before=done_before,
        recorded_now=recorded,
        pending_after=len(batches) - len(cp.done),
        elapsed_s=time.monotonic() - started,
        safety_failures=safety_failures,
        errors=errors,
    )


# ---------------------------------------------------------------------------
# output merging

def _parse_frames(text: str) -> List[Tuple[int, int, int, List[str]]]:
    """Complete frames as (batch_id, start, end, report blocks); torn
    trailing frames (from a crash mid-write) are dropped."""
    frames = []
    current: Optional[Tuple[int, int, int]] = None
    blocks: List[str] = []
    pending_block: List[str] = []

    def close_block() -> None:
        if pending_block:
            blocks.append("\n".join(pending_block))
            pending_block.clear()

    for line in text.splitlines():
        if line.startswith("batch "):
            parts = line.split()
            current = (int(parts[1]), int(parts[3]), int(parts[4]))
            blocks = []
            pending_block = []
        elif line.startswith("end batch "):
            if current is None:
                continue
            close_block()
            if int(line.split()[2]) == current[0]:
                frames.append((*current, blocks))
            current = None
        elif current is not None:
            if line.startswith("\t"):
                pending_block.append(line)
            else:
                close_block()
                pending_block.append(line)
    return frames


def merge_outputs(output_path) -> List[ReportOrError]:
    """Reports in catalogue order, duplicate batch records collapsed to the
    first.

    Duplicates must agree record for record, except in their timings (a
    batch re-run after a crash between its output write and its checkpoint
    save is timed anew); any other disagreement means the search was
    nondeterministic upstream and is a hard error.
    """
    text = Path(output_path).read_text(encoding="ascii")
    by_id: Dict[int, Tuple[int, int, List[ReportOrError]]] = {}
    for batch_id, start, end, blocks in _parse_frames(text):
        records = [parse_report(block) for block in blocks]
        if batch_id not in by_id:
            by_id[batch_id] = (start, end, records)
            continue
        first = by_id[batch_id]
        if first[:2] != (start, end) or _untimed(first[2]) != _untimed(records):
            raise ConflictingRecordsError(
                f"batch {batch_id} has conflicting duplicate records"
            )
    out: List[ReportOrError] = []
    for batch_id in sorted(by_id, key=lambda b: by_id[b][0]):
        out.extend(by_id[batch_id][2])
    return out


def _untimed(records: List[ReportOrError]) -> List[ReportOrError]:
    return [
        replace(r, elapsed_ms=0) if isinstance(r, GridSearchReport) else r
        for r in records
    ]
