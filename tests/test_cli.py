import argparse
import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from test_acceptance import PINNED_9X9
from minclue.cli import build_parser, main
from minclue.grid import SHAPE_4X4, format_grid
from minclue.symmetry import representatives
from minclue.taskfarm import run_farm


def run_cli(argv, stdin_text=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestVerifyScs:
    def test_true_row(self):
        code, out, _ = run_cli(["verify-scs", "4", "288", "4"])
        assert code == 0
        assert out.strip() == "true"

    def test_false_row(self):
        code, out, _ = run_cli(["verify-scs", "4", "288", "5"])
        assert code == 0
        assert out.strip() == "false"

    def test_big_integer_row(self):
        code, out, _ = run_cli(
            ["verify-scs", "9", "6670903752021072936960", "17"]
        )
        assert code == 0 and out.strip() == "true"


class TestUsageErrors:
    def test_no_arguments(self):
        code, _out, err = run_cli([])
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_flag(self):
        code, _out, err = run_cli(["solve", "--bogus"])
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_command(self):
        code, _, _ = run_cli(["frobnicate"])
        assert code == 1

    def test_removed_bench_command(self):
        code, _, err = run_cli(["bench"])
        assert code == 1
        assert "invalid choice: 'bench'" in err


class TestReadme:
    def test_command_list_matches_the_parser(self):
        """README's "Command line" block names each subcommand once, in
        the parser's order, and no other."""
        readme = Path(__file__).resolve().parent.parent / "README.md"
        block = readme.read_text().split("## Command line", 1)[1]
        block = block.split("```sh\n", 1)[1].split("```", 1)[0]
        documented = [
            line.split()[1] for line in block.splitlines() if line.startswith("minclue ")
        ]
        (sub,) = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        assert documented == list(sub.choices)


class TestCatalog:
    def test_4x4_banner_and_representatives(self):
        code, out, _ = run_cli(["catalog", "--shape", "4x4"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "# total_completions 288"
        reps = [format_grid(r) for r in representatives(SHAPE_4X4)]
        assert lines[1:] == reps


class TestSolve:
    def test_counts_and_completions(self, tmp_path):
        path = tmp_path / "puzzles.txt"
        path.write_text("0000000000000000\n1234341221434321\n")
        code, out, _ = run_cli(["solve", str(path)])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split("\t")[0] == "2"
        assert len(lines[0].split("\t")) == 3
        assert lines[1].split("\t") == ["1", "1234341221434321"]

    def test_data_error_exit(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("123\n")
        code, _out, err = run_cli(["solve", str(path)])
        assert code == 2
        assert "error" in err

    def test_limit_past_a_c_int_is_a_data_error(self, monkeypatch):
        code, out, err = run_cli(
            ["solve", "--limit", "4294967297"],
            stdin_text="0000000000000000\n", monkeypatch=monkeypatch,
        )
        assert code == 2
        assert "limit must be in 1..2147483647" in err and out == ""


class TestCanon:
    def test_canonical_line(self, tmp_path, monkeypatch):
        code, out, _ = run_cli(
            ["canon"], stdin_text="4321123434122143\n", monkeypatch=monkeypatch
        )
        assert code == 0
        line = out.strip()
        reps = {format_grid(r) for r in representatives(SHAPE_4X4)}
        assert line in reps

    def test_bad_grid_is_data_error(self, monkeypatch):
        code, _out, err = run_cli(
            ["canon"], stdin_text="1111111111111111\n", monkeypatch=monkeypatch
        )
        assert code == 2
        assert "error" in err


class TestUnavoidableCli:
    def test_lists_sets(self, monkeypatch):
        code, out, _ = run_cli(
            ["unavoidable", "--max-size", "8"],
            stdin_text="1234341221434321\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# grid 1234341221434321 sets ")
        body = lines[1:]
        assert len(body) == 10
        first = [int(tok) for tok in body[0].split(",")]
        assert first == sorted(first)


class TestCliquesCli:
    def test_degree_column(self, monkeypatch):
        code, out, _ = run_cli(
            ["cliques", "--degree", "2", "--max-size", "8", "--start", "1",
             "--cap", "50", "--shape", "4x4"],
            stdin_text="1234341221434321\n",
            monkeypatch=monkeypatch,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# grid ")
        for line in lines[1:]:
            degree, cells = line.split("\t")
            assert degree == "2"
            values = [int(tok) for tok in cells.split(",")]
            assert values == sorted(values)


class TestFamilyOutputPinned:
    """sha256 of the stdout of the two family commands on a 9x9 and a
    6x6 grid: their output is pinned byte for byte."""

    SIX = "362415145236214563536124423651651342"  # random_solution_grid, seed 6
    UNAVOIDABLE = ["unavoidable", "--max-size", "8"]
    CLIQUES = ["cliques", "--degree", "3", "--max-size", "8", "--start", "2",
               "--cap", "200"]

    @pytest.mark.parametrize(
        "grid, argv, digest",
        [
            (PINNED_9X9[0], UNAVOIDABLE,
             "e692d11404a5df44c047d63bcfbda61220900c3fcac001ab8fb8b305a3a2b2bb"),
            (PINNED_9X9[0], CLIQUES,
             "a4a604a2ecb824b12aa25b7050f2588eca0193ad13503a540e9d619295a3978f"),
            (SIX, UNAVOIDABLE,
             "90628def9d4403ab42e547be71398b99a7bf3224242dd5a0b442a9b934e736bc"),
            (SIX, CLIQUES,
             "2c348f19009ba71d1a497c435fc25a5971684fbb806f9b40d9a6f25793d0dc9b"),
        ],
    )
    def test_stdout_digest(self, grid, argv, digest, monkeypatch):
        code, out, _ = run_cli(argv, stdin_text=grid + "\n", monkeypatch=monkeypatch)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestHitsetCli:
    def test_worked_instance(self, tmp_path):
        path = tmp_path / "instance.txt"
        path.write_text("81 2\n1: 0,3,9,12\n1: 0,1,27,28\n1: 3,4,66,67\n")
        code, out, _ = run_cli(["hitset", str(path)])
        assert code == 0
        assert sorted(out.strip().splitlines()) == [
            "0,3", "0,4", "0,66", "0,67", "1,3", "3,27", "3,28",
        ]


class TestSearchCli:
    def test_safety_failure_exits_3(self, tmp_path, one_unsafe_candidate):
        path = tmp_path / "grids.txt"
        path.write_text("1234341221434321\n")
        code, out, _ = run_cli(["search", str(path), "--k", "4"])
        assert code == 3
        assert "\t!safety 1" in out.splitlines()

    def test_header_and_report(self, tmp_path):
        path = tmp_path / "grids.txt"
        path.write_text("1234341221434321\n")
        code, out, _ = run_cli(["search", str(path), "--k", "4"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# version=1"
        body = [ln for ln in lines if not ln.startswith("#")]
        fields = body[0].split("\t")
        assert fields[0] == "1234341221434321"
        assert fields[1] == "4"
        assert fields[4] == "12"

    def test_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("family_cap=2\nclique_degrees=2\n")
        grids = tmp_path / "grids.txt"
        grids.write_text("1234341221434321\n")
        code, out, _ = run_cli(
            ["search", str(grids), "--k", "4", "--config", str(config)]
        )
        assert code == 0
        assert "# family_cap=2" in out
        body = [ln for ln in out.splitlines() if not ln.startswith("#")]
        assert body[0].split("\t")[4] == "12"

    def test_output_replays_its_header(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("family_cap=2\nconsolidate.3=off\n")
        grids = tmp_path / "grids.txt"
        grids.write_text("1234341221434321\n")
        code, out, _ = run_cli(
            ["search", str(grids), "--k", "4", "--config", str(config)]
        )
        assert code == 0
        saved = tmp_path / "out.txt"
        saved.write_text(out)
        code, replay, _ = run_cli(
            ["search", str(grids), "--k", "4", "--config", str(saved)]
        )
        assert code == 0
        header = [ln for ln in out.splitlines() if ln.startswith("#")]
        assert [ln for ln in replay.splitlines() if ln.startswith("#")] == header
        assert "# family_cap=2" in header and "# consolidate.3=off" in header
        code, _, err = run_cli(
            ["search", str(grids), "--k", "5", "--config", str(saved)]
        )
        assert code == 2 and "k=4" in err

    def test_removed_key_is_refused(self, tmp_path):
        grids = tmp_path / "grids.txt"
        grids.write_text("1234341221434321\n")
        config = tmp_path / "run.cfg"
        _, out, _ = run_cli(["search", str(grids), "--k", "4"])
        header = [ln for ln in out.splitlines() if ln.startswith("#")]
        for key in (
            "dedup", "degree_pruning", "consolidation", "effective_size",
            "clique_start.3",
        ):
            # where older headers wrote it
            old_header = header[:5] + [f"# {key}=1"] + header[5:]
            for text in (f"family_cap=2\n{key}=1\n", "\n".join(old_header) + "\n"):
                config.write_text(text)
                code, out, err = run_cli(
                    ["search", str(grids), "--k", "4", "--config", str(config)]
                )
                assert code == 2
                assert f"unknown configuration key '{key}'" in err
                assert out == ""

    def test_malformed_line_carries_its_index(self, tmp_path):
        grids = tmp_path / "grids.txt"
        grids.write_text("1234341221434321\n123\n1111111111111111\n")
        code, out, _ = run_cli(["search", str(grids), "--k", "4"])
        assert code == 2
        body = [ln for ln in out.splitlines() if not ln.startswith(("#", "\t"))]
        assert body[0].startswith("1234341221434321\t4\t")
        assert body[1].startswith("!error\t1\t")
        assert body[2].startswith("!error\t2\t")

    def test_config_k_must_match(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("k=5\n")
        grids = tmp_path / "grids.txt"
        grids.write_text("1234341221434321\n")
        code, out, err = run_cli(
            ["search", str(grids), "--k", "4", "--config", str(config)]
        )
        assert code == 2
        assert "k=5" in err and "--k is 4" in err
        assert out == ""
        config.write_text("k=4\n")
        code, _, _ = run_cli(["search", str(grids), "--k", "4", "--config", str(config)])
        assert code == 0


    def test_config_no_grid_can_use_is_a_data_error(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("clique_cap.2=0\n")
        grids = tmp_path / "grids.txt"
        grids.write_text("1234341221434321\n")
        code, out, err = run_cli(
            ["search", str(grids), "--k", "4", "--config", str(config)]
        )
        assert code == 2
        assert "clique_cap.2 must be at least 1" in err
        assert out == ""

    def test_max_set_size_below_four_is_a_data_error(self, tmp_path):
        # no unavoidable set is that small: the run would emit every
        # k-subset of the board
        config = tmp_path / "run.cfg"
        grids = tmp_path / "grids.txt"
        grids.write_text("1234341221434321\n")
        for value in ("3", "0", "-3"):
            config.write_text(f"max_set_size={value}\n")
            code, out, err = run_cli(
                ["search", str(grids), "--k", "4", "--config", str(config)]
            )
            assert code == 2
            assert "max_set_size must be at least 4" in err
            assert out == ""

    def test_clique_degree_without_a_cap_is_a_data_error(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("clique_degrees=2,7\n")
        grids = tmp_path / "grids.txt"
        grids.write_text("1234341221434321\n")
        code, out, err = run_cli(
            ["search", str(grids), "--k", "8", "--config", str(config)]
        )
        assert code == 2
        assert "clique degree 7" in err and "clique_cap.7" in err
        assert out == ""
        config.write_text("clique_degrees=2,7\nclique_cap.7=4\n")
        code, _, _ = run_cli(["search", str(grids), "--k", "8", "--config", str(config)])
        assert code == 0


class TestFarmCli:
    def test_farm_and_merge(self, tmp_path):
        catalogue = tmp_path / "cat.txt"
        reps = representatives(SHAPE_4X4)
        catalogue.write_text("\n".join(format_grid(r) for r in reps) + "\n")
        code, out, _ = run_cli(
            [
                "farm", str(catalogue), "--k", "3", "--workers", "1",
                "--batch", "1",
                "--checkpoint", str(tmp_path / "cp.txt"),
                "--out", str(tmp_path / "out.txt"),
                "--merge",
            ]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("# batches 2 done_before 0 recorded 2")
        assert len([ln for ln in lines[1:] if not ln.startswith("\t")]) == 2

    def test_error_records_name_the_catalogue_line(self, tmp_path):
        """`search` and `farm` give a malformed line its index in the file,
        blank lines counted, and both exit 2 for it: `farm` whether it
        records the error or merges it."""
        catalogue = tmp_path / "cat.txt"
        catalogue.write_text("1234341221434321\n\n123\n2143341212344321\n")
        code, out, _ = run_cli(["search", str(catalogue), "--k", "4"])
        assert code == 2
        assert [ln for ln in out.splitlines() if ln.startswith("!")] == [
            "!error\t2\tcannot infer shape from line of length 3"
        ]
        for merge in (("--merge",), ()):
            tag = "merged" if merge else "recorded"
            code, out, _ = run_cli(
                [
                    "farm", str(catalogue), "--k", "4", "--batch", "2",
                    "--checkpoint", str(tmp_path / f"cp-{tag}.txt"),
                    "--out", str(tmp_path / f"out-{tag}.txt"), *merge,
                ]
            )
            assert code == 2, tag
            errors = [
                ln for ln in (tmp_path / f"out-{tag}.txt").read_text().splitlines()
                if ln.startswith("!")
            ]
            assert errors == ["!error\t2\tcannot infer shape from line of length 3"]
            if merge:
                assert "!error\t2\tcannot infer shape from line of length 3" in out.splitlines()
        # resumed with nothing left to run, the merge alone still exits 2
        code, _, _ = run_cli(
            [
                "farm", str(catalogue), "--k", "4", "--batch", "2",
                "--checkpoint", str(tmp_path / "cp-recorded.txt"),
                "--out", str(tmp_path / "out-recorded.txt"), "--merge",
            ]
        )
        assert code == 2

    def farm_argv(self, tmp_path, *extra):
        catalogue = tmp_path / "cat.txt"
        reps = representatives(SHAPE_4X4)
        catalogue.write_text("\n".join(format_grid(r) for r in reps) + "\n")
        return [
            "farm", str(catalogue), "--k", "3",
            "--checkpoint", str(tmp_path / "cp.txt"),
            "--out", str(tmp_path / "out.txt"), *extra,
        ]

    def test_recorded_safety_failure_exits_3(self, tmp_path, one_unsafe_candidate):
        """The patched `confirm` reaches the forked farm worker."""
        argv = self.farm_argv(tmp_path, "--batch", "1", "--workers", "1")
        argv[argv.index("--k") + 1] = "4"
        code, _, _ = run_cli(argv)
        assert code == 3
        assert "\t!safety 1\n" in (tmp_path / "out.txt").read_text()

    def test_merged_safety_failure_exits_3(self, tmp_path):
        argv = self.farm_argv(tmp_path, "--batch", "1", "--merge")
        assert run_cli(argv)[0] == 0
        out = tmp_path / "out.txt"
        text = out.read_text()
        first = next(ln for ln in text.splitlines() if ln.startswith("batch "))
        head = text.splitlines()[text.splitlines().index(first) + 1]
        out.write_text(text.replace(head + "\n", head + "\n\t!safety 2\n", 1))
        code, stdout, _ = run_cli(argv)
        assert code == 3
        assert "recorded 0" in stdout
        assert "\t!safety 2" in stdout.splitlines()

    def test_config_k_must_match(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("k=4\n")
        code, _, err = run_cli(self.farm_argv(tmp_path, "--config", str(config)))
        assert code == 2
        assert "k=4" in err and "--k is 3" in err
        assert not (tmp_path / "cp.txt").exists()

    def test_config_no_grid_can_use_is_a_data_error(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("clique_cap.2=0\n")
        code, _, err = run_cli(self.farm_argv(tmp_path, "--config", str(config)))
        assert code == 2
        assert "clique_cap.2 must be at least 1" in err
        assert not (tmp_path / "cp.txt").exists()
        assert not (tmp_path / "out.txt").exists()

    def test_max_set_size_below_four_is_a_data_error(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("max_set_size=3\n")
        code, _, err = run_cli(self.farm_argv(tmp_path, "--config", str(config)))
        assert code == 2
        assert "max_set_size must be at least 4" in err
        assert not (tmp_path / "cp.txt").exists()
        assert not (tmp_path / "out.txt").exists()

    def test_batch_failing_its_retry_is_a_data_error(self, tmp_path):
        for k in ("0", "17"):
            argv = self.farm_argv(tmp_path, "--batch", "1", "--workers", "1")
            argv[argv.index("--k") + 1] = k
            (tmp_path / "cp.txt").unlink(missing_ok=True)
            code, out, err = run_cli(argv)
            assert code == 2
            assert "error: k must be in 1..16" in err
            assert out == ""

    def test_empty_checkpoint_is_a_data_error(self, tmp_path):
        (tmp_path / "cp.txt").write_text("")
        code, _, err = run_cli(self.farm_argv(tmp_path))
        assert code == 2
        assert "empty" in err and "Traceback" not in err

    def test_done_batch_outside_the_plan_is_a_data_error(self, tmp_path):
        """Six grids in batches of two make a plan of three; a checkpoint
        that also marks batches 99 and -3 done is refused untouched."""
        catalogue = tmp_path / "cat.txt"
        reps = representatives(SHAPE_4X4) * 3
        catalogue.write_text("".join(format_grid(r) + "\n" for r in reps))
        cp_path = tmp_path / "cp.txt"
        run_farm(
            catalogue, 3, batch_size=2, checkpoint_path=cp_path,
            output_path=tmp_path / "out.txt", max_batches=1,
        )
        with open(cp_path, "a", encoding="ascii") as fh:
            fh.write("done 99\ndone -3\n")
        before = cp_path.read_bytes()
        code, out, err = run_cli(
            ["farm", str(catalogue), "--k", "3", "--batch", "2",
             "--checkpoint", str(cp_path), "--out", str(tmp_path / "out.txt")]
        )
        assert code == 2
        assert "outside its plan of 3 batches" in err
        assert out == ""
        assert cp_path.read_bytes() == before

    def test_resume_with_other_config_is_a_data_error(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("family_cap=2\n")
        assert run_cli(self.farm_argv(tmp_path, "--batch", "1"))[0] == 0
        code, _, err = run_cli(
            self.farm_argv(tmp_path, "--batch", "1", "--config", str(config))
        )
        assert code == 2
        assert "configuration" in err
