"""Tests for the command-line interface.

Every subcommand gets a smoke test on a tiny 1-task suite. Training
happens once: the session-scoped ``cli_artifacts`` fixture runs
``repro train --save`` and the experiment subcommands reuse that
directory through ``--artifacts`` — exercising exactly the
no-retraining path the serving API exists for.
"""

import re

import pytest

from repro.cli import build_parser, main
from repro.eval.suite import SuiteConfig

TINY = ["--tasks", "1", "--n-train", "30", "--n-test", "10", "--epochs", "5"]


@pytest.fixture(scope="session")
def cli_artifacts(tmp_path_factory):
    """One `repro train --save` run shared by every --artifacts test."""
    directory = tmp_path_factory.mktemp("cli_artifacts") / "suite"
    assert main(["train", "--save", str(directory), *TINY]) == 0
    return str(directory)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_suite_defaults_come_from_suite_config(self):
        """One source of truth: argparse defaults == SuiteConfig()."""
        defaults = SuiteConfig()
        args = build_parser().parse_args(["table1"])
        assert args.tasks is None  # resolved to all 20 at build time
        assert args.n_train == defaults.n_train
        assert args.n_test == defaults.n_test
        assert args.epochs == defaults.epochs
        assert args.seed == defaults.seed
        assert args.artifacts is None

    def test_custom_task_list(self):
        args = build_parser().parse_args(["fig3", "--tasks", "1", "2"])
        assert args.tasks == [1, 2]

    def test_resources_arguments(self):
        args = build_parser().parse_args(["resources", "--vocab", "99"])
        assert args.vocab == 99

    def test_epilog_lists_every_subcommand(self):
        epilog = build_parser().epilog
        for name in (
            "table1", "fig3", "fig4", "ablation", "mips", "sweep",
            "resources", "tasks", "train", "query", "serve-bench",
        ):
            assert name in epilog

    def test_train_requires_save(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    def test_train_takes_no_artifacts_flag(self):
        """`train` always trains; it must reject --artifacts."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--save", "x", "--artifacts", "y"])


class TestCommands:
    def test_tasks_listing(self, capsys):
        assert main(["tasks"]) == 0
        out = capsys.readouterr().out
        assert "single supporting fact" in out
        assert "path finding" in out

    def test_resources_report(self, capsys):
        assert main(["resources", "--vocab", "200"]) == 0
        out = capsys.readouterr().out
        assert "LUT" in out
        assert "fits on the device" in out

    def test_table1_small_run(self, capsys):
        assert main(["table1", *TINY]) == 0
        out = capsys.readouterr().out
        assert "FPGA 100 MHz" in out
        assert "ITH inference-time reduction" in out

    def test_ablation_small_run(self, capsys):
        assert main(["ablation", *TINY]) == 0
        assert "interface removed" in capsys.readouterr().out

    def test_sweep_frequency(self, capsys):
        assert main(["sweep", "--kind", "frequency"]) == 0
        assert "Clock sweep" in capsys.readouterr().out

    def test_sweep_width(self, capsys):
        assert main(["sweep", "--kind", "width"]) == 0
        out = capsys.readouterr().out
        assert "Model-width sweep" in out
        assert "DSP util" in out

    def test_sweep_interface(self, capsys):
        assert main(["sweep", "--kind", "interface"]) == 0
        assert "Interface-latency sweep" in capsys.readouterr().out


class TestServingCommands:
    def test_train_saves_artifacts(self, cli_artifacts, capsys):
        """The fixture ran `train --save`; the directory must verify."""
        from repro.artifacts import verify_artifacts

        suite = verify_artifacts(cli_artifacts)
        assert suite.task_ids == [1]

    def test_query_round_trip(self, cli_artifacts, capsys):
        assert main(["query", "--artifacts", cli_artifacts, "--task", "1"]) == 0
        out = capsys.readouterr().out
        assert "device=sw" in out
        assert "correct" in out

    def test_query_threshold_backend(self, cli_artifacts, capsys):
        code = main(
            [
                "query", "--artifacts", cli_artifacts, "--task", "1",
                "--mips-backend", "threshold", "--rho", "1.0", "--indices", "0", "1",
            ]
        )
        assert code == 0
        assert "threshold backend" in capsys.readouterr().out

    def test_query_hw_device(self, cli_artifacts, capsys):
        code = main(
            [
                "query", "--artifacts", cli_artifacts, "--task", "1",
                "--device", "hw", "--indices", "0",
            ]
        )
        assert code == 0
        assert "device=hw" in capsys.readouterr().out

    def test_query_unknown_task_exits(self, cli_artifacts):
        with pytest.raises(SystemExit):
            main(["query", "--artifacts", cli_artifacts, "--task", "99"])

    def test_query_bad_index_exits(self, cli_artifacts):
        with pytest.raises(SystemExit):
            main(
                [
                    "query", "--artifacts", cli_artifacts, "--task", "1",
                    "--indices", "9999",
                ]
            )

    def test_serve_bench(self, cli_artifacts, capsys):
        code = main(
            [
                "serve-bench", "--artifacts", cli_artifacts,
                "--requests", "32", "--max-batch", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "one-at-a-time" in out
        assert "scheduler (max_batch=8)" in out
        assert "micro-batching speedup" in out
        assert "per-route requests: task 1: 32" in out

    def test_serve_bench_story_cache_line(self, cli_artifacts, capsys):
        """The cache line sums the routes' own story caches."""
        code = main(
            [
                "serve-bench", "--artifacts", cli_artifacts,
                "--requests", "64", "--max-batch", "8",
                "--cache-entries", "16", "--zipf", "1.2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        match = re.search(r"story cache: hit rate [\d.]+% \((\d+) hits / ", out)
        assert match is not None, out
        assert int(match.group(1)) > 0

    def test_train_quantize_and_query_quantized(self, tmp_path, capsys):
        directory = str(tmp_path / "qsuite")
        assert main(["train", "--save", directory, "--quantize", "3", "8", *TINY]) == 0
        assert "Q3.8 fixed-point snapshot" in capsys.readouterr().out
        assert main(["query", "--artifacts", directory, "--task", "1", "--quantized"]) == 0
        assert "quantized weights" in capsys.readouterr().out

    def test_query_quantized_without_snapshot_exits(self, cli_artifacts):
        with pytest.raises(SystemExit, match="quantized"):
            main(["query", "--artifacts", cli_artifacts, "--task", "1", "--quantized"])


class TestArtifactsFlag:
    """Experiment subcommands reuse saved artifacts instead of retraining."""

    def test_table1_from_artifacts(self, cli_artifacts, capsys):
        assert main(["table1", "--artifacts", cli_artifacts]) == 0
        assert "FPGA 100 MHz" in capsys.readouterr().out

    def test_fig3_from_artifacts(self, cli_artifacts, capsys):
        assert main(["fig3", "--artifacts", cli_artifacts]) == 0
        assert "inference thresholding sweep" in capsys.readouterr().out

    def test_fig4_from_artifacts(self, cli_artifacts, capsys):
        assert main(["fig4", "--artifacts", cli_artifacts]) == 0
        assert "per-task energy efficiency" in capsys.readouterr().out

    def test_ablation_from_artifacts(self, cli_artifacts, capsys):
        assert main(["ablation", "--artifacts", cli_artifacts]) == 0
        assert "interface removed" in capsys.readouterr().out

    def test_mips_from_artifacts(self, cli_artifacts, capsys):
        code = main(
            ["mips", "--artifacts", cli_artifacts, "--mips-backend", "threshold"]
        )
        assert code == 0
        assert "threshold" in capsys.readouterr().out

    def test_task_subset_from_artifacts(self, cli_artifacts, capsys):
        assert main(["table1", "--artifacts", cli_artifacts, "--tasks", "1"]) == 0
        capsys.readouterr()

    def test_task_subset_keeps_config_consistent(self, cli_artifacts):
        """A subsetted suite must self-describe only the tasks it holds."""
        import argparse

        from repro.cli import _obtain_suite

        args = argparse.Namespace(artifacts=cli_artifacts, tasks=[1])
        suite = _obtain_suite(args)
        assert suite.task_ids == [1]
        assert suite.config.task_ids == (1,)

    def test_missing_task_in_artifacts_exits(self, cli_artifacts):
        with pytest.raises(SystemExit):
            main(["table1", "--artifacts", cli_artifacts, "--tasks", "2"])
