"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestBounds:
    def test_default_paper_point(self, capsys):
        assert main(["bounds"]) == 0
        out = capsys.readouterr().out
        assert "h = 3.4849" in out
        assert "cohen-petrank-theorem1" in out
        assert "cohen-petrank-theorem2" in out

    def test_profile_flag(self, capsys):
        assert main(["bounds", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "h(ell=3)" in out

    def test_no_compaction(self, capsys):
        assert main(["bounds", "--c", "0", "--live", "4096",
                     "--object", "64"]) == 0
        out = capsys.readouterr().out
        assert "robson" in out

    def test_bad_params_exit_2(self, capsys):
        assert main(["bounds", "--object", "100"]) == 2
        assert "power of two" in capsys.readouterr().err


class TestFigures:
    @pytest.mark.parametrize("which", ["fig1", "fig2", "fig3"])
    def test_renders(self, which, capsys):
        assert main(["figure", which]) == 0
        out = capsys.readouterr().out
        assert "legend:" in out

    def test_table_flag(self, capsys):
        assert main(["figure", "fig1", "--table"]) == 0
        out = capsys.readouterr().out
        assert "cohen-petrank (Thm 1)" in out


class TestSimulate:
    def test_pf_run(self, capsys):
        assert main([
            "simulate", "--program", "pf", "--manager", "first-fit",
            "--live", "2048", "--object", "64", "--c", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "cohen-petrank-PF vs first-fit" in out
        assert "utilization" in out

    def test_heapmap_flag(self, capsys):
        assert main([
            "simulate", "--program", "checkerboard", "--manager", "best-fit",
            "--live", "512", "--object", "16", "--c", "0", "--heapmap",
        ]) == 0
        out = capsys.readouterr().out
        assert "high water" in out

    def test_unknown_manager_exit_2(self, capsys):
        assert main(["simulate", "--manager", "nope",
                     "--live", "512", "--object", "16"]) == 2
        assert "unknown manager" in capsys.readouterr().err


class TestExperiment:
    def test_pf_grid(self, capsys):
        assert main(["experiment", "pf", "--live", "2048", "--object", "64",
                     "--c", "20"]) == 0
        out = capsys.readouterr().out
        assert "theorem1-h" in out
        assert "all rows respect the bound" in out

    def test_robson_grid(self, capsys):
        assert main(["experiment", "robson", "--live", "1024",
                     "--object", "32"]) == 0
        assert "robson-lower" in capsys.readouterr().out

    def test_upper_grid(self, capsys):
        assert main(["experiment", "upper", "--live", "1024",
                     "--object", "32", "--c", "10"]) == 0
        assert "bp-(c+1)M" in capsys.readouterr().out


class TestMisc:
    def test_exact(self, capsys):
        assert main(["exact", "--live", "4", "--object", "2"]) == 0
        assert "5 words" in capsys.readouterr().out

    def test_exact_budgeted(self, capsys):
        assert main(["exact", "--live", "4", "--object", "2",
                     "--budget", "2"]) == 0
        out = capsys.readouterr().out
        assert "B=2" in out and "5 words" in out

    def test_solve(self, capsys):
        assert main(["solve", "--live", "4", "--object", "2"]) == 0
        out = capsys.readouterr().out
        assert "exact minimum heap for M=4, n=2" in out
        assert "5 words" in out
        assert "probes:" in out

    def test_solve_stats_and_budget(self, capsys):
        assert main(["solve", "--live", "4", "--object", "2",
                     "--budget", "2", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "B=2" in out and "5 words" in out
        assert "peak_frontier=" in out

    def test_solve_cache_roundtrip(self, tmp_path, capsys):
        cache_dir = tmp_path / "solve-cache"
        argv = ["solve", "--live", "4", "--object", "2",
                "--cache-dir", str(cache_dir)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "[solved," in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "[cache," in warm
        assert "5 words" in warm

    def test_solve_record_writes_manifest(self, tmp_path, capsys):
        target = tmp_path / "solve-run"
        assert main(["solve", "--live", "4", "--object", "2",
                     "--record", str(target)]) == 0
        assert "recorded:" in capsys.readouterr().out
        assert (target / "manifest.json").is_file()
        manifest = json.loads((target / "manifest.json").read_text())
        assert "jobs" not in manifest["config"]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--live", "256", "--object", "16", "--grid", "10",
         "--managers", "first-fit"],
        ["solve", "--live", "4", "--object", "2"],
        ["staticcheck", "--list-rules"],
    ])
    def test_negative_jobs_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--jobs", "-2"])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_absolute(self, capsys):
        assert main(["absolute", "--budget", str(1 << 24)]) == 0
        out = capsys.readouterr().out
        assert "corollary lower bound" in out
        assert "effective c" in out

    def test_absolute_trivial(self, capsys):
        assert main(["absolute", "--budget", str(1 << 40)]) == 0
        assert "trivial" in capsys.readouterr().out

    def test_managers_list(self, capsys):
        assert main(["managers"]) == 0
        out = capsys.readouterr().out
        assert "first-fit" in out and "semispace" in out

    def test_programs_list(self, capsys):
        assert main(["programs"]) == 0
        assert "pf" in capsys.readouterr().out

    def test_parser_help_builds(self):
        parser = build_parser()
        assert parser.prog == "repro"


class TestTelemetry:
    def _record(self, tmp_path, capsys):
        target = tmp_path / "demo"
        assert main([
            "simulate", "--program", "pf", "--manager", "compacting",
            "--live", "2048", "--object", "64", "--c", "20",
            "--telemetry", str(target),
        ]) == 0
        return target, capsys.readouterr().out

    def test_simulate_telemetry_writes_run_dir(self, tmp_path, capsys):
        target, out = self._record(tmp_path, capsys)
        assert (target / "manifest.json").is_file()
        assert (target / "events.jsonl").is_file()
        assert "telemetry written to" in out
        assert "events/s" in out

    def test_report_renders_recorded_run(self, tmp_path, capsys):
        target, _ = self._record(tmp_path, capsys)
        assert main(["report", str(target)]) == 0
        out = capsys.readouterr().out
        assert "cohen-petrank-PF vs sliding-compactor" in out
        assert "stage progression:" in out
        assert "stage I -> stage II" in out
        assert "waste-factor trajectory" in out

    def test_report_no_plot(self, tmp_path, capsys):
        target, _ = self._record(tmp_path, capsys)
        assert main(["report", str(target), "--no-plot"]) == 0
        out = capsys.readouterr().out
        assert "waste-factor trajectory" not in out
        assert "stage progression:" in out

    def test_report_missing_dir_exit_2(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_simulate_wall_clock_always_printed(self, capsys):
        assert main([
            "simulate", "--program", "checkerboard", "--manager", "first-fit",
            "--live", "512", "--object", "16", "--c", "0",
        ]) == 0
        assert "wall " in capsys.readouterr().out

    def test_experiment_telemetry(self, tmp_path, capsys):
        target = tmp_path / "grid"
        assert main([
            "experiment", "robson", "--live", "1024", "--object", "32",
            "--telemetry", str(target),
        ]) == 0
        assert "per-row telemetry" in capsys.readouterr().out
        run_dirs = list(target.iterdir())
        assert run_dirs
        for run_dir in run_dirs:
            assert (run_dir / "manifest.json").is_file()
