import random
import re

import pytest

from minclue.checker import GridSearchReport, SearchConfig
from minclue.config import config_digest, config_header_lines
from minclue.errors import CheckpointMismatchError, ConflictingRecordsError
from minclue.grid import SHAPE_4X4, format_grid
from minclue.symmetry import apply, random_transformation, representatives
from minclue.taskfarm import (
    Checkpoint,
    FarmSummary,
    catalogue_digest,
    merge_outputs,
    plan_batches,
    run_farm,
)


@pytest.fixture(scope="module")
def catalogue_50(tmp_path_factory):
    """Fifty valid 4x4 grids: orbit images of the two representatives."""
    rng = random.Random(1234)
    reps = representatives(SHAPE_4X4)
    lines = []
    for i in range(50):
        t = random_transformation(SHAPE_4X4, rng)
        lines.append(format_grid(apply(t, reps[i % 2])))
    path = tmp_path_factory.mktemp("farm") / "catalogue.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


def farm_paths(tmp_path, tag):
    return tmp_path / f"{tag}.checkpoint", tmp_path / f"{tag}.out"


def reports_as_multiset(reports):
    out = []
    for r in reports:
        assert isinstance(r, GridSearchReport)
        out.append((r.grid, r.k, r.proper_found, tuple(p.mask for p in r.proper_puzzles)))
    return sorted(out)


class TestPlanBatches:
    def test_partition(self):
        batches = plan_batches(50, 16)
        assert [b.batch_id for b in batches] == [0, 1, 2, 3]
        assert batches[0].start == 0 and batches[-1].end == 50
        covered = []
        for b in batches:
            covered.extend(range(b.start, b.end))
        assert covered == list(range(50))

    def test_batch_size_validation(self):
        with pytest.raises(ValueError):
            plan_batches(10, 0)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cp = Checkpoint(
            digest="ab" * 32, k=4, n_batches=7, config_digest="cd" * 32, done={0, 3}
        )
        path = tmp_path / "cp.txt"
        cp.save(path)
        back = Checkpoint.load(path)
        assert back == cp

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "cp.txt"
        path.write_text("bogus header\n")
        with pytest.raises(CheckpointMismatchError):
            Checkpoint.load(path)

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_file_refused(self, tmp_path, text):
        path = tmp_path / "cp.txt"
        path.write_text(text)
        with pytest.raises(CheckpointMismatchError, match="empty"):
            Checkpoint.load(path)

    def test_header_without_config_digest_refused(self, tmp_path):
        path = tmp_path / "cp.txt"
        path.write_text(f"catalog {'ab' * 32} k 4 batches 7\ndone 0\n")
        with pytest.raises(CheckpointMismatchError, match="config"):
            Checkpoint.load(path)

    def test_malformed_done_line_refused(self, tmp_path):
        path = tmp_path / "cp.txt"
        path.write_text(f"catalog {'ab' * 32} k 4 batches 7 config {'cd' * 32}\ndone x\n")
        with pytest.raises(CheckpointMismatchError):
            Checkpoint.load(path)

    @pytest.mark.parametrize("batch_id", [-1, 7])
    def test_done_batch_outside_the_plan_refused(self, tmp_path, batch_id):
        path = tmp_path / "cp.txt"
        path.write_text(
            f"catalog {'ab' * 32} k 4 batches 7 config {'cd' * 32}\n"
            f"done 0\ndone {batch_id}\n"
        )
        with pytest.raises(CheckpointMismatchError, match="outside its plan"):
            Checkpoint.load(path)


class TestRunFarm:
    def test_clean_run_records_every_batch(self, catalogue_50, tmp_path):
        cp_path, out_path = farm_paths(tmp_path, "clean")
        summary = run_farm(
            catalogue_50, 4, workers=1, batch_size=30,
            checkpoint_path=cp_path, output_path=out_path,
        )
        assert isinstance(summary, FarmSummary)
        assert summary.batches_total == 2
        assert summary.recorded_now == 2
        assert summary.pending_after == 0
        assert summary.safety_failures == 0
        cp = Checkpoint.load(cp_path)
        assert cp.done == {0, 1}
        reports = merge_outputs(out_path)
        assert len(reports) == 50

    def test_safety_failures_are_summed_and_merged(
        self, catalogue_50, tmp_path, one_unsafe_candidate
    ):
        cp_path, out_path = farm_paths(tmp_path, "unsafe")
        summary = run_farm(
            catalogue_50, 4, workers=1, batch_size=30,
            checkpoint_path=cp_path, output_path=out_path,
        )
        assert summary.safety_failures == 1
        failing = [r for r in merge_outputs(out_path) if r.safety_failures]
        assert [r.safety_failures for r in failing] == [1]

    def test_resume_against_modified_catalogue_refused(self, catalogue_50, tmp_path):
        cp_path, out_path = farm_paths(tmp_path, "digest")
        run_farm(catalogue_50, 4, workers=1, batch_size=30,
                 checkpoint_path=cp_path, output_path=out_path)
        other = tmp_path / "other.txt"
        other.write_text(catalogue_50.read_text().replace("1", "2", 1))
        with pytest.raises(CheckpointMismatchError):
            run_farm(other, 4, workers=1, batch_size=30,
                     checkpoint_path=cp_path, output_path=out_path)

    def test_changed_k_refused(self, catalogue_50, tmp_path):
        cp_path, out_path = farm_paths(tmp_path, "kmismatch")
        run_farm(catalogue_50, 4, workers=1, batch_size=30,
                 checkpoint_path=cp_path, output_path=out_path)
        with pytest.raises(CheckpointMismatchError):
            run_farm(catalogue_50, 3, workers=1, batch_size=30,
                     checkpoint_path=cp_path, output_path=out_path)

    def test_changed_config_refused(self, catalogue_50, tmp_path):
        cp_path, out_path = farm_paths(tmp_path, "cfgmismatch")
        run_farm(catalogue_50, 4, workers=1, batch_size=30,
                 checkpoint_path=cp_path, output_path=out_path, max_batches=1)
        assert Checkpoint.load(cp_path).config_digest == config_digest(SearchConfig())
        with pytest.raises(CheckpointMismatchError, match="configuration"):
            run_farm(catalogue_50, 4, workers=1, batch_size=30,
                     checkpoint_path=cp_path, output_path=out_path,
                     config=SearchConfig(family_cap=2))

    def test_output_starts_with_the_config_header(self, catalogue_50, tmp_path):
        cp_path, out_path = farm_paths(tmp_path, "header")
        config = SearchConfig(family_cap=5, clique_degrees=(2, 3))
        run_farm(catalogue_50, 4, workers=1, batch_size=30, config=config,
                 checkpoint_path=cp_path, output_path=out_path, max_batches=1)
        run_farm(catalogue_50, 4, workers=1, batch_size=30, config=config,
                 checkpoint_path=cp_path, output_path=out_path)
        text = out_path.read_text()
        header = config_header_lines(config, 4)
        assert text.splitlines()[: len(header)] == header
        assert text.count("# version=") == 1  # a resumed run appends frames only
        assert len(merge_outputs(out_path)) == 50

    def test_batch_failing_once_is_recorded_on_retry(
        self, catalogue_50, tmp_path, monkeypatch
    ):
        """The first search raises, in whichever forked worker runs it; the
        marker file makes every later one go through."""
        from minclue import taskfarm

        real = taskfarm.search_catalog
        marker = tmp_path / "failed-once"

        def search_catalog(*args):
            if not marker.exists():
                marker.touch()
                raise RuntimeError("transient failure")
            return real(*args)

        monkeypatch.setattr(taskfarm, "search_catalog", search_catalog)
        cp_path, out_path = farm_paths(tmp_path, "retry")
        summary = run_farm(catalogue_50, 4, workers=1, batch_size=30,
                           checkpoint_path=cp_path, output_path=out_path)
        assert marker.exists()
        assert summary.recorded_now == 2 and summary.pending_after == 0
        assert Checkpoint.load(cp_path).done == {0, 1}
        assert len(merge_outputs(out_path)) == 50

    def test_worker_cap_env(self, catalogue_50, tmp_path, monkeypatch):
        monkeypatch.setenv("CHECKER_THREADS", "1")
        cp_path, out_path = farm_paths(tmp_path, "envcap")
        summary = run_farm(catalogue_50, 4, workers=8, batch_size=25,
                           checkpoint_path=cp_path, output_path=out_path)
        assert summary.recorded_now == 2

    def test_crash_equivalence_at_five_kill_points(self, catalogue_50, tmp_path):
        cp_path, out_path = farm_paths(tmp_path, "reference")
        run_farm(catalogue_50, 4, workers=2, batch_size=5,
                 checkpoint_path=cp_path, output_path=out_path)
        reference = reports_as_multiset(merge_outputs(out_path))

        for kill_after in (1, 2, 3, 4, 5):
            cp_k, out_k = farm_paths(tmp_path, f"kill{kill_after}")
            interrupted = run_farm(
                catalogue_50, 4, workers=2, batch_size=5,
                checkpoint_path=cp_k, output_path=out_k,
                max_batches=kill_after,
            )
            assert interrupted.recorded_now == kill_after
            assert interrupted.pending_after == 10 - kill_after
            resumed = run_farm(
                catalogue_50, 4, workers=2, batch_size=5,
                checkpoint_path=cp_k, output_path=out_k,
            )
            assert resumed.pending_after == 0
            assert resumed.done_before == kill_after
            merged = reports_as_multiset(merge_outputs(out_k))
            assert merged == reference

    def test_torn_final_frame_is_reprocessed(self, catalogue_50, tmp_path):
        cp_path, out_path = farm_paths(tmp_path, "torn")
        run_farm(catalogue_50, 4, workers=1, batch_size=5,
                 checkpoint_path=cp_path, output_path=out_path,
                 max_batches=3)
        # simulate a crash mid-write of an unacknowledged frame
        with open(out_path, "a") as fh:
            fh.write("batch 9 range 45 50\n1234341221434321\t4\t10\t16\t12\t1\n")
        run_farm(catalogue_50, 4, workers=1, batch_size=5,
                 checkpoint_path=cp_path, output_path=out_path)
        merged = merge_outputs(out_path)
        assert len(merged) == 50


class TestMergeOutputs:
    def test_duplicate_identical_records_collapse(self, catalogue_50, tmp_path):
        cp_path, out_path = farm_paths(tmp_path, "dup")
        run_farm(catalogue_50, 4, workers=1, batch_size=25,
                 checkpoint_path=cp_path, output_path=out_path)
        text = out_path.read_text()
        first_frame = text.split("end batch 0\n")[0] + "end batch 0\n"
        out_path.write_text(text + first_frame)
        merged = merge_outputs(out_path)
        assert len(merged) == 50

    def test_duplicate_differing_only_in_timing_collapses(
        self, catalogue_50, tmp_path
    ):
        """A batch re-run after a crash between its output write and its
        checkpoint save is timed anew; the first record is kept."""
        cp_path, out_path = farm_paths(tmp_path, "retimed")
        run_farm(catalogue_50, 4, workers=1, batch_size=25,
                 checkpoint_path=cp_path, output_path=out_path)
        text = out_path.read_text()
        reference = merge_outputs(out_path)
        frame = "batch 0 " + text.split("\nbatch 0 ", 1)[1].split("end batch 0\n")[0]
        retimed = re.sub(r"^(\d{16}(\t\d+){4})\t\d+$", r"\1\t987654", frame,
                         flags=re.M)
        assert retimed.count("\t987654\n") == 25
        out_path.write_text(text + retimed + "end batch 0\n")
        assert merge_outputs(out_path) == reference

    def test_conflicting_duplicates_error(self, catalogue_50, tmp_path):
        cp_path, out_path = farm_paths(tmp_path, "conflict")
        run_farm(catalogue_50, 4, workers=1, batch_size=25,
                 checkpoint_path=cp_path, output_path=out_path)
        text = out_path.read_text()
        first_frame = text.split("end batch 0\n")[0] + "end batch 0\n"
        corrupted = first_frame.replace("\t4\t", "\t9\t", 1)
        out_path.write_text(text + corrupted)
        with pytest.raises(ConflictingRecordsError):
            merge_outputs(out_path)

    def test_catalogue_digest_changes_with_content(self, catalogue_50, tmp_path):
        a = catalogue_digest(catalogue_50)
        other = tmp_path / "copy.txt"
        other.write_text(catalogue_50.read_text() + "\n")
        assert catalogue_digest(other) != a
