"""End-to-end tests for the command line interface."""

import csv
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import openkpz
from openkpz import cli
from openkpz.cli import main


def run(args):
    return main([str(a) for a in args])


class TestVerifyAlgebra:
    def test_exit_zero_and_report(self, capsys):
        assert run(["verify-algebra"]) == 0
        out = capsys.readouterr().out
        assert "4/4 tables exact" in out

    def test_full_report_pinned(self, capsys):
        assert run(["verify-algebra"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "table degree       exact",
            "table coproduct    exact",
            "table gamma        exact",
            "table renormalize  exact",
            "4/4 tables exact over 14 elements",
            "structure group: all properties hold",
            "renormalization constants: (C0, 2*C0, 2*C0*a10 + C1 + C2/4 + C3/2)",
        ]

    def test_shared_flags_leave_the_report_unchanged(self, tmp_path, capsys):
        assert run(["verify-algebra"]) == 0
        plain = capsys.readouterr().out
        assert run(["--seed", 3, "verify-algebra", "--out-dir", tmp_path]) == 0
        assert capsys.readouterr().out == plain

    def test_corrupted_golden_row_is_exit_1(self, capsys, monkeypatch):
        from openkpz.treealg import golden

        rows = golden.load_golden_rows()
        rows[3].degree = rows[4].degree
        monkeypatch.setattr(golden, "load_golden_rows", lambda: rows)
        assert run(["verify-algebra"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "table degree       MISMATCH" in out
        assert f"  degree[{rows[3].name}]: computed" in "\n".join(out)
        assert "3/4 tables exact over 14 elements" in out

    def test_encoded_term_that_is_not_the_basis_tree_is_exit_1(self, capsys, monkeypatch):
        from openkpz.treealg import basis_tree, golden, parse_tree

        rows = golden.load_golden_rows()
        rows[3].term, rows[4].name = rows[4].term, "<nope>"
        monkeypatch.setattr(golden, "load_golden_rows", lambda: rows)
        assert run(["verify-algebra"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "table degree       MISMATCH" in out
        encoded, basis = rows[4].term, basis_tree(rows[3].name)
        line = f"  degree[{rows[3].name}]: encoded term {encoded!r} != basis {basis!r}"
        assert line in out
        written = line.split(": encoded term ")[1].split(" != basis ")
        assert list(map(parse_tree, written)) == [encoded, basis]
        assert "  degree[<nope>]: no basis element is named <nope>" in out

    def test_row_count_mismatch_is_exit_1(self, capsys, monkeypatch):
        from openkpz.treealg import golden

        rows = golden.load_golden_rows()[:-1]
        monkeypatch.setattr(golden, "load_golden_rows", lambda: rows)
        assert run(["verify-algebra"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "  degree[*]: 13 rows encoded, 14 basis elements" in out
        assert "3/4 tables exact over 13 elements" in out

    @staticmethod
    def _edit_delta_of_1d1(tmp_path, monkeypatch, edit):
        """Serve a copy of the tables whose <1d1> row has the Delta cell ``edit(delta)``."""
        import importlib.resources

        text = (importlib.resources.files("openkpz.treealg") / "data/golden_tables.txt").read_text()
        row = next(line for line in text.splitlines() if line.startswith("<1d1> |"))
        delta = row.split(" | ")[3]
        bad = row.replace(f" | {delta} | ", f" | {edit(delta)} | ", 1)
        assert bad != row
        (tmp_path / "data").mkdir()
        (tmp_path / "data" / "golden_tables.txt").write_text(text.replace(row, bad))
        monkeypatch.setattr(importlib.resources, "files", lambda package: tmp_path)
        return bad

    def test_unclosed_bracket_in_a_table_row_is_exit_2(self, tmp_path, capsys, monkeypatch):
        bad = self._edit_delta_of_1d1(tmp_path, monkeypatch, lambda delta: f"(a {delta}")
        assert run(["verify-algebra"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: brackets do not close in ") and bad in err

    def test_unreadable_cell_names_its_row_and_column(self, tmp_path, capsys, monkeypatch):
        self._edit_delta_of_1d1(tmp_path, monkeypatch,
                                lambda delta: delta.replace("<1d1>", "<1dd1>", 1))
        assert run(["verify-algebra"]) == 2
        assert capsys.readouterr().err == ("configuration error: golden table row <1d1>, "
                                           "column Δ: cannot read '<1dd1>' as a tree\n")

    def test_gamma_mismatch_prints_table_syntax(self, capsys, monkeypatch):
        from openkpz.treealg import basis_tree, gamma_f, generic_character, golden
        from openkpz.treealg.combination import TreeCombination

        rows = golden.load_golden_rows()
        assert rows[5].name == "<1d1>"
        rows[5].gamma = TreeCombination.parse("<1d1> + (d) 1 + (g) X1")  # a*g dropped
        monkeypatch.setattr(golden, "load_golden_rows", lambda: rows)
        assert run(["verify-algebra"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "table gamma        MISMATCH" in out
        line = next(line for line in out if line.startswith("  gamma[<1d1>]: computed "))
        computed, encoded = line.removeprefix("  gamma[<1d1>]: computed ").split(" != encoded ")
        assert computed == "(a*g + d) 1 + (g) X1 + <1d1>"
        assert TreeCombination.parse(computed) == gamma_f(generic_character(), basis_tree("<1d1>"))
        assert TreeCombination.parse(encoded) == rows[5].gamma

    def test_unmatched_renormalization_residual_is_exit_1(self, capsys, monkeypatch):
        from openkpz.treealg import basis_tree, expansion
        from openkpz.treealg.combination import SYMBOLS, TreeCombination

        renormalize = expansion.renormalize
        stray = TreeCombination({basis_tree("<2d>"): SYMBOLS["C1"]})
        monkeypatch.setattr(expansion, "renormalize", lambda x: renormalize(x) + stray)
        with pytest.raises(expansion.ConstantExtractionError) as exc:
            expansion.renorm_constants()
        assert run(["verify-algebra"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "4/4 tables exact over 14 elements" in out
        assert "structure group: all properties hold" in out
        assert out[-1] == "renormalization constants: ()  MISMATCH"
        line = next(line for line in out if line.startswith("  constants[*]: "))
        residual = line.removeprefix("  constants[*]: unmatched residual ")
        assert TreeCombination.parse(residual) == exc.value.residual

    def test_failing_structure_group_law_is_exit_1(self, capsys, monkeypatch):
        from openkpz.treealg import golden

        check = golden.check_structure_group

        def one_law_fails(f):
            laws = check(f)
            laws[1] = (laws[1][0], False, "planted witness")
            return laws

        monkeypatch.setattr(golden, "check_structure_group", one_law_fails)
        assert run(["verify-algebra"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert "  structure group[triangular on Xi]: planted witness" in out
        assert "structure group: FAIL" in out
        assert "4/4 tables exact over 14 elements" in out

    def test_wrong_expected_constant_is_exit_1(self, capsys, monkeypatch):
        from openkpz.treealg import golden

        monkeypatch.setattr(golden, "EXPECTED_CONSTANTS", ("C0", "2*C0", "C1"))
        assert run(["verify-algebra"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[-1].endswith("  MISMATCH")
        assert "  constants[c3]: computed 2*C0*a10 + C1 + C2/4 + C3/2 != expected C1" in out
        assert "structure group: all properties hold" in out


class TestKernel:
    def test_writes_csv_with_config_header(self, tmp_path):
        assert run(["--out-dir", tmp_path, "kernel", "--kind", "neumann",
                    "--grid", 8, "--t", 0.1]) == 0
        text = (tmp_path / "kernel_neumann.csv").read_text()
        assert text.startswith("# config:")
        assert "t,x,y,value,error_bound" in text

    def test_unknown_kind_is_config_error(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[kernel]\nkind = cauchy\n")
        assert run(["--config", cfg, "--out-dir", tmp_path, "kernel"]) == 2

    @pytest.mark.parametrize("flag", ["--u", "--v"])
    def test_negative_value_in_exponent_notation(self, tmp_path, flag):
        base = ["kernel", "--kind", "robin", "--t", 0.1, "--grid", 4]
        assert run(["--out-dir", tmp_path / "spaced", *base, flag, "-2e-1"]) == 0
        assert run(["--out-dir", tmp_path / "joined", *base, f"{flag}=-0.2"]) == 0
        spaced = (tmp_path / "spaced" / "kernel_robin.csv").read_text()
        assert spaced == (tmp_path / "joined" / "kernel_robin.csv").read_text()
        assert f'"{flag[2:]}": -0.2' in spaced.splitlines()[0]

    def test_any_dash_led_token_is_a_flag_value(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(["--out-dir", "-x", "kernel", "--grid", 4]) == 0
        assert (tmp_path / "-x" / "kernel_neumann.csv").exists()
        assert run(["--out-dir", "-x", "kernel", "--kind", "robin", "--u", "-inf"]) == 2
        assert "(u=-inf, v=0.5)" in capsys.readouterr().err

    def test_help_lists_the_kinds(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["kernel", "--help"])
        assert exc.value.code == 0
        assert "--kind {neumann,robin,gauss}" in capsys.readouterr().out


class TestConstantA:
    def test_json_artifact(self, tmp_path):
        assert run(["--out-dir", tmp_path, "constant-a", "--cells", 64]) == 0
        payload = json.loads((tmp_path / "constant_a.json").read_text())
        assert abs(payload["value"] + 0.02742750513831) < 1e-9
        assert payload["config"]["seed"] == 0
        assert payload["mollifier"]["time_radius"] == 1.0

    def test_default_value_pinned(self, tmp_path):
        # radii 1 and 256 cells: the value test_kernels.py pins for constant_a
        assert run(["--out-dir", tmp_path, "constant-a"]) == 0
        payload = json.loads((tmp_path / "constant_a.json").read_text())
        assert payload["value"] == -0.02742750513832859


class TestSimulate:
    def test_dt_is_an_unknown_flag_exit_2(self, tmp_path, capsys):
        # the time step is the grid's, dt = dx^2/2
        with pytest.raises(SystemExit) as exc:
            run(["--out-dir", tmp_path / "out", "simulate", "--dt", 0.01, "--dx", 0.03125])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dt" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["--out-dir", out, "simulate", "--paths", 10,
                        "--t-final", 0.05, "--dx", 0.0625, "--seed", 3]) == 0
        assert (a / "simulate.csv").read_bytes() == (b / "simulate.csv").read_bytes()

    def test_exclusion_leaving_fewer_than_two_paths_is_exit_3(self, tmp_path, capsys,
                                                              monkeypatch):
        from openkpz import shesolver

        def one_kept(z0, params, cfg):
            lost = np.arange(cfg.n_paths) >= 1
            return shesolver.SheResult({cfg.t_final: np.ones((cfg.n_paths, cfg.n + 1))},
                                       lost, cfg)

        monkeypatch.setattr(shesolver, "simulate_she", one_kept)
        code = run(["--out-dir", tmp_path / "out", "simulate", "--paths", 5,
                    "--dx", 0.25, "--t-final", 0.0625])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: positivity exclusion left 1 of 5 paths, fewer than the 2 needed")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("uv", [-20, -60])
    def test_overflow_is_exit_3(self, tmp_path, capsys, uv):
        # -20 overflows to NaN, which no positivity flag catches; -60 reaches a
        # value <= 0 first, so the overflow is named before the flags are read
        code = run(["--out-dir", tmp_path / "out", "simulate", "--u", uv, "--v", uv,
                    "--dx", 0.125, "--t-final", 20, "--paths", 4])
        assert code == 3
        assert capsys.readouterr().err == (
            f"numerical failure: overflow at (u, v) = ({uv}.0, {uv}.0), dx = 0.125: "
            "4 of the 4 paths 0..3 left the float range\n")
        assert not (tmp_path / "out").exists()


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[simulate]\npaths = 5\nseed = 8\ndx = 0.0625\nt-final = 0.05\n")
        assert run(["--config", cfg, "--out-dir", tmp_path, "simulate",
                    "--paths", 7]) == 0
        header = (tmp_path / "simulate.csv").read_text().splitlines()[0]
        resolved = json.loads(header[len("# config: "):])
        assert resolved["paths"] == 7  # flag wins
        assert resolved["seed"] == 8  # config survives

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[simulate]\nbogus = 1\n")
        assert run(["--config", cfg, "simulate"]) == 2

    def test_missing_file_rejected(self, tmp_path):
        assert run(["--config", tmp_path / "absent.ini", "simulate"]) == 2

    def test_config_value_outside_choices_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[kernel]\nkind = cauchy\n")
        assert run(["--config", cfg, "--out-dir", tmp_path, "kernel"]) == 2
        assert "choose from ('neumann', 'robin', 'gauss')" in capsys.readouterr().err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("text, message", [
        ("u = 1\n", "cannot parse config file {cfg}: File contains no section headers."),
        ("[kernel]\nu = 1\nu = 2\n", "option 'u' in section 'kernel' already exists"),
        ("[kernel]\n[kernel]\n", "section 'kernel' already exists"),
        ("[simulat]\npaths = 5\n", "section [simulat] of config file {cfg} names no command"),
        ("[DEFAULT]\npaths = 5\n", "section [DEFAULT] of config file {cfg} names no command"),
    ], ids=["no-section-header", "repeated-key", "repeated-section", "misspelt-section",
            "default-section"])
    def test_malformed_file_or_section_is_config_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        assert run(["--config", cfg, "--out-dir", tmp_path / "out", "kernel", "--grid", 2]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and repr(str(cfg)) in err
        assert message.format(cfg=repr(str(cfg))) in err
        assert not (tmp_path / "out").exists()

    def test_workers_flag_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["--workers", 2, "--out-dir", tmp_path, "verify-algebra"])
        assert exc.value.code == 2

    def test_config_header_has_no_workers_key(self, tmp_path):
        assert run(["--out-dir", tmp_path, "simulate", "--paths", 5,
                    "--t-final", 0.05, "--dx", 0.0625]) == 0
        header = (tmp_path / "simulate.csv").read_text().splitlines()[0]
        assert "workers" not in json.loads(header[len("# config: "):])


class TestSampleStationary:
    def test_sidecar_reports_diagnostics(self, tmp_path):
        assert run(["--out-dir", tmp_path, "sample-stationary", "--u", 1, "--v", 1,
                    "--dx", 0.0625, "--n-samples", 50, "--burn-in", 200,
                    "--thinning", 2, "--seed", 1]) == 0
        meta = json.loads((tmp_path / "stationary_meta.json").read_text())
        assert meta["sampler"] == "pcn-mcmc"
        assert 0.0 < meta["acceptance_rate"] <= 1.0
        assert "normalization" in meta

    def test_every_option_has_a_flag(self, tmp_path):
        assert run(["--out-dir", tmp_path, "sample-stationary", "--dx", 0.0625,
                    "--n-samples", 20, "--burn-in", 20, "--thinning", 1,
                    "--normalization-samples", 300]) == 0
        meta = json.loads((tmp_path / "stationary_meta.json").read_text())
        assert meta["config"]["normalization_samples"] == 300

    @pytest.mark.parametrize("u, v, recorded", [(0.5, -0.5, False), (1, 1, True)])
    def test_config_records_only_options_the_sampler_reads(self, tmp_path, u, v, recorded):
        pcn = ["--burn-in", 20, "--thinning", 1, "--normalization-samples", 300]
        assert run(["--out-dir", tmp_path, "sample-stationary", "--u", u, "--v", v,
                    "--dx", 0.0625, "--n-samples", 20, *(pcn if recorded else [])]) == 0
        meta = json.loads((tmp_path / "stationary_meta.json").read_text())
        header = (tmp_path / "stationary_samples.csv").read_text().splitlines()[0]
        for config in (meta["config"], json.loads(header[len("# config: "):])):
            for key in ("rho", "burn_in", "thinning", "normalization_samples"):
                assert (key in config) == recorded, key

    def test_single_normalization_sample_is_config_error_before_any_draw(self, tmp_path,
                                                                        capsys, monkeypatch):
        # one path has no standard error, so the sidecar would hold "se": NaN
        from openkpz import stationary

        def forbidden(*args, **kwargs):
            raise AssertionError("drew paths before checking normalization_samples")

        monkeypatch.setattr(stationary, "brownian_half", forbidden)
        code = run(["--out-dir", tmp_path, "sample-stationary", "--u", 1, "--v", 1,
                    "--normalization-samples", 1])
        assert code == 2
        assert "n_samples = 1" in capsys.readouterr().err
        assert not (tmp_path / "stationary_meta.json").exists()

    def test_exact_sampler_for_zero_sum(self, tmp_path):
        assert run(["--out-dir", tmp_path, "sample-stationary", "--u", 0.5,
                    "--v", -0.5, "--dx", 0.0625, "--n-samples", 20]) == 0
        meta = json.loads((tmp_path / "stationary_meta.json").read_text())
        assert meta["sampler"] == "brownian-with-drift"


class TestDegenerateInput:
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--dx", 0], "dx must be positive and finite (dx=0.0)"),
        (["simulate", "--dx", -0.25], "dx must be positive and finite (dx=-0.25)"),
        (["sample-stationary", "--dx", 0], "dx must be positive and finite (dx=0.0)"),
        (["experiment", "coupling", "--dx", 0], "dx must be positive and finite (dx=0.0)"),
        (["experiment", "ergodic", "--dx", -0.25], "dx must be positive and finite (dx=-0.25)"),
        (["simulate", "--dx", 1e-300], "1/dx = 1e+300 cells > 65536 (dx=1e-300)"),
        (["experiment", "stationarity", "--dx", 1e-300],
         "1/dx = 1e+300 cells > 65536 (dx=1e-300)"),
        (["experiment", "ergodic", "--dx", 1e-300], "1/dx = 1e+300 cells > 65536 (dx=1e-300)"),
        (["experiment", "coupling", "--dx", 1e-300], "1/dx = 1e+300 cells > 65536 (dx=1e-300)"),
        (["sample-stationary", "--dx", 1e-300], "1/dx = 1e+300 cells > 65536 (dx=1e-300)"),
        (["sample-stationary", "--u", 0.5, "--v", -0.5, "--dx", 1e-300],
         "1/dx = 1e+300 cells > 65536 (dx=1e-300)"),
        (["simulate", "--dx", 5e-324], "1/dx = inf cells > 65536 (dx=5e-324)"),
        (["kernel", "--kind", "robin", "--u", 1e308, "--v", 1e308, "--grid", 4],
         "the Robin Laplacian overflows (u=1e+308, v=1e+308, n=4)"),
        (["simulate", "--u", 1e308, "--v", 1e308, "--dx", 0.25, "--t-final", 0.03125,
          "--paths", 2], "the Robin Laplacian overflows (u=1e+308, v=1e+308, n=4)"),
        (["kernel", "--kind", "robin", "--grid", 0], "(n=0)"),
        (["constant-a", "--cells", 0], "(n=0)"),
        (["sample-stationary", "--u", 0.5, "--v", -0.5, "--n-samples", 0], "n_samples = 0"),
        (["kernel", "--kind", "robin", "--grid", 4, "--u", "nan"], "(u=nan, v=0.5)"),
        (["simulate", "--u", "nan", "--dx", 0.25, "--t-final", 0.25, "--paths", 3],
         "(u=nan, v=0.0)"),
        (["experiment", "coupling", "--u", "nan", "--dx", 0.0625, "--t-final", 0.25],
         "(u=nan, v=-0.5)"),
        (["kernel", "--kind", "neumann", "--grid", 0], "--grid must be at least 1 (n=0)"),
        (["kernel", "--kind", "gauss", "--grid", -1], "--grid must be at least 1 (n=-1)"),
        (["kernel", "--kind", "neumann", "--grid", -2], "--grid must be at least 1 (n=-2)"),
        (["simulate", "--t-final", -1], "positive and finite (t=-1.0)"),
        (["simulate", "--t-final", 0], "positive and finite (t=0.0)"),
        (["simulate", "--t-final", "inf"], "positive and finite (t=inf)"),
        (["simulate", "--save-times", -0.5], "positive and finite (t=-0.5)"),
        (["simulate", "--t-final", 1, "--save-times", 2],
         "save time 2.0 lies outside [0, t_final] = [0, 1.0]"),
        (["experiment", "coupling", "--t-final", -1], "positive and finite (t=-1.0)"),
        (["kernel", "--kind", "gauss", "--grid", 4, "--u", 0.5],
         "the gauss variant does not read 'u'"),
        (["sample-stationary", "--u", 0.5, "--v", -0.5, "--dx", 0.25, "--n-samples", 5,
          "--rho", 0.9], "the brownian-with-drift variant does not read 'rho'"),
        (["kernel", "--kind", "gauss", "--t", -1, "--grid", 2], "positive and finite (t=-1.0)"),
        (["kernel", "--kind", "gauss", "--t", "nan"], "positive and finite (t=nan)"),
        (["kernel", "--kind", "gauss", "--t", "inf"], "positive and finite (t=inf)"),
        (["kernel", "--kind", "neumann", "--t", 0], "positive and finite (t=0.0)"),
        (["kernel", "--kind", "neumann", "--t", "nan"], "positive and finite (t=nan)"),
        (["kernel", "--kind", "neumann", "--t", "inf"], "positive and finite (t=inf)"),
        (["kernel", "--kind", "robin", "--t", -1], "positive and finite (t=-1.0)"),
        (["kernel", "--kind", "robin", "--t", "nan"], "positive and finite (t=nan)"),
        (["kernel", "--kind", "robin", "--t", "inf"], "positive and finite (t=inf)"),
        (["kernel", "--kind", "robin", "--t", 1e306, "--grid", 256],
         "time 1e+306 at dt=0.00048828125 takes inf steps > MAX_STEPS"),
        (["simulate", "--t-final", 1e300, "--paths", 1, "--dx", 0.25],
         "time 1e+300 at dt=0.03125 takes 3.2e+301 steps > MAX_STEPS = 100000000"),
        (["simulate", "--paths", 1, "--dx", 0.25, "--t-final", 0.0625],
         "--paths must be at least 2 for a variance (paths=1)"),
        (["constant-a", "--time-radius", "inf"], "positive and finite (time_radius=inf)"),
        (["constant-a", "--time-radius", "nan"], "positive and finite (time_radius=nan)"),
        (["constant-a", "--space-radius", "inf"], "positive and finite (space_radius=inf)"),
        (["constant-a", "--space-radius", "nan"], "positive and finite (space_radius=nan)"),
        (["kernel", "--kind", "neumann", "--t", 1e6], "at t=1000000.0 needs 19315 > 10000 images"),
        (["sample-stationary", "--u", 1, "--v", 1, "--rho", 1.5], "(0, 1) (rho=1.5)"),
        (["sample-stationary", "--u", 1, "--v", 1, "--burn-in", -1],
         "burn_in must be at least 0 (burn_in=-1)"),
        (["sample-stationary", "--u", 1, "--v", 1, "--thinning", 0],
         "thinning must be at least 1 (thinning=0)"),
        (["sample-stationary", "--u", 1, "--v", 1, "--n-samples", 0],
         "n_samples must be at least 1 (n_samples=0)"),
        (["simulate", "--save-times", "abc"], "--save-times entry 'abc' is not a number"),
        (["simulate", "--save-times", "0.5, 1e"], "--save-times entry '1e' is not a number"),
        (["simulate", "--dx", "abc"], "--dx 'abc' is not a number"),
        (["simulate", "--paths", 1.5], "--paths '1.5' is not an integer"),
        (["kernel", "--kind", "cauchy"],
         "--kind 'cauchy'; choose from ('neumann', 'robin', 'gauss')"),
        (["--seed", "x", "kernel"], "--seed 'x' is not an integer"),
    ], ids=["simulate-dx-0", "simulate-dx-negative", "sample-stationary-dx-0",
            "coupling-dx-0", "ergodic-dx-negative", "simulate-dt-underflows",
            "stationarity-dt-underflows", "ergodic-dt-underflows", "coupling-dx-too-small",
            "pcn-dx-too-small", "bm-drift-dx-too-small", "simulate-dx-subnormal",
            "robin-laplacian-overflows", "simulate-laplacian-overflows", "robin-grid-0",
            "constant-a-cells-0", "bm-drift-n-samples-0", "robin-u-nan", "simulate-u-nan",
            "coupling-u-nan",
            "neumann-grid-0", "gauss-grid-negative", "neumann-grid-negative",
            "simulate-t-final-negative", "simulate-t-final-0", "simulate-t-final-inf",
            "simulate-save-time-negative", "simulate-save-time-past-t-final",
            "coupling-t-final-negative", "gauss-u",
            "bm-drift-rho", "gauss-t-negative", "gauss-t-nan", "gauss-t-inf", "neumann-t-0",
            "neumann-t-nan", "neumann-t-inf", "robin-t-negative", "robin-t-nan", "robin-t-inf",
            "robin-t-overflows-step-count", "simulate-t-final-above-step-bound",
            "simulate-paths-1", "constant-a-time-radius-inf", "constant-a-time-radius-nan",
            "constant-a-space-radius-inf", "constant-a-space-radius-nan", "neumann-t-too-long",
            "pcn-rho-1.5", "pcn-burn-in-negative", "pcn-thinning-0", "pcn-n-samples-0",
            "simulate-save-times-abc", "simulate-save-times-second-entry", "simulate-dx-abc",
            "simulate-paths-1.5", "kernel-kind-cauchy", "seed-x"])
    def test_config_error_names_the_value(self, tmp_path, capsys, argv, message):
        assert run(["--out-dir", tmp_path / "out", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, line, message", [
        (["simulate"], "dx = abc", "[simulate] dx = 'abc' is not a number"),
        (["simulate"], "paths = 1.5", "[simulate] paths = '1.5' is not an integer"),
        (["kernel"], "grid = 2.5", "[kernel] grid = '2.5' is not an integer"),
        (["experiment", "coupling"], "t-final = 1s",
         "[experiment.coupling] t_final = '1s' is not a number"),
        (["kernel"], "u = %(x)s", "[kernel] u = '%(x)s' is not a number"),
        (["simulate"], "save-times = abc", "[simulate] save_times = 'abc' is not a number"),
        (["simulate"], "save_times = 0.5, 1e", "[simulate] save_times = '1e' is not a number"),
        (["simulate"], "t-final = 0.5\nt_final = 0.25",
         "section [simulate] sets 't_final' twice, as 't-final' and as 't_final'"),
    ], ids=["simulate-dx-abc", "simulate-paths-1.5", "kernel-grid-2.5", "coupling-t-final-1s",
            "kernel-u-percent", "simulate-save-times-abc", "simulate-save-times-second-entry",
            "simulate-t-final-both-spellings"])
    def test_unparseable_config_value_names_the_key(self, tmp_path, capsys, argv, line,
                                                   message):
        cfg = tmp_path / "run.ini"
        section = ".".join(argv)
        cfg.write_text(f"[{section}]\n{line}\n")
        assert run(["--config", cfg, "--out-dir", tmp_path / "out", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert not (tmp_path / "out").exists()

    def test_save_times_flag_over_the_ini_is_named_as_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[simulate]\nsave-times = 0.5\n")
        assert run(["--config", cfg, "--out-dir", tmp_path / "out", "simulate",
                    "--save-times", "abc"]) == 2
        assert capsys.readouterr().err == (
            "configuration error: --save-times entry 'abc' is not a number\n")

    @pytest.mark.parametrize("command", ["simulate", "kernel", "experiment.coupling"])
    @pytest.mark.parametrize("source", ["flag", "ini"])
    def test_negative_seed_rejected_before_any_work(self, tmp_path, capsys, monkeypatch,
                                                   command, source):
        from openkpz import harness, kernels, shesolver

        def forbidden(*args, **kwargs):
            raise AssertionError("ran before checking the seed")

        for module, name in [(shesolver, "simulate_she"), (harness, "simulate_she"),
                             (kernels, "neumann_kernel")]:
            monkeypatch.setattr(module, name, forbidden)
        ini = tmp_path / "run.ini"
        ini.write_text(f"[{command}]\nseed = -1\n")
        seed = ["--config", ini] if source == "ini" else ["--seed", -1]
        assert run([*seed, "--out-dir", tmp_path / "out", *command.split(".")]) == 2
        assert capsys.readouterr().err == (
            "configuration error: seed must be a non-negative integer (seed=-1)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, ini, message", [
        (["--seed", -5], None, "seed must be a non-negative integer (seed=-5)"),
        ([], "seed = -1", "seed must be a non-negative integer (seed=-1)"),
        ([], "dx = 0.25", "unknown key 'dx' in section [verify-algebra]"),
        ([], "", "cannot read config file"),
    ], ids=["seed-flag", "seed-ini", "unknown-ini-key", "unreadable-config"])
    def test_verify_algebra_checks_the_shared_flags(self, tmp_path, capsys, monkeypatch,
                                                   flags, ini, message):
        from openkpz import treealg

        def forbidden(*args, **kwargs):
            raise AssertionError("checked the algebra before the shared flags")

        monkeypatch.setattr(treealg, "verify_golden_tables", forbidden)
        cfg = tmp_path / "run.ini"  # ini None: no --config; "": a --config naming no file
        if ini is not None:
            flags = ["--config", cfg]
            if ini:
                cfg.write_text(f"[verify-algebra]\n{ini}\n")
        assert run([*flags, "--out-dir", tmp_path / "out", "verify-algebra"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["sample-stationary", "--u", "inf", "--dx", 0.25, "--n-samples", 5, "--burn-in", 10,
          "--thinning", 1, "--normalization-samples", 100], "(u, v) = (inf, 1.0)"),
        (["experiment", "stationarity", "--u", "inf", "--dx", 0.0625, "--n-samples", 50,
          "--t-final", 0.0625], "(u, v) = (inf, -0.5)"),
    ], ids=["sample-stationary", "experiment-stationarity"])
    def test_nonfinite_slope_rejected_before_any_draw(self, tmp_path, capsys, monkeypatch,
                                                      argv, message):
        from openkpz import stationary

        def forbidden(*args, **kwargs):
            raise AssertionError("made a generator before checking the slopes")

        monkeypatch.setattr(stationary.np.random, "default_rng", forbidden)
        assert run(["--out-dir", tmp_path / "out", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {message}: the slopes must be finite")
        assert not (tmp_path / "out").exists()

    def test_normalization_overflow_is_numerical_failure(self, tmp_path, capsys):
        code = run(["--out-dir", tmp_path / "out", "sample-stationary", "--u", 400,
                    "--v", 400, "--dx", 0.0625, "--n-samples", 10, "--burn-in", 10,
                    "--thinning", 1, "--normalization-samples", 1000])
        assert code == 3
        assert "u + v = 800" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _csv_reference(artifact, columns, rows) -> bytes:
    """``artifact`` as ``csv.writer`` renders ``rows``: the artifact's own config
    line, then the header and rows in the csv module's default dialect."""
    config_line = artifact.read_bytes().split(b"\n", 1)[0].decode()
    buf = io.StringIO()
    buf.write(config_line + "\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue().encode()


class TestCsvBytes:
    """Every CSV artifact is byte for byte what ``csv.writer`` writes for its numpy rows."""

    def test_fields_are_formatted_as_csv_writer_does(self):
        fields = [np.float64(0.1), 0.1 + 0.2, 1e-300, 1e16, float("nan"), -float("inf"),
                  3, np.int64(7), True, "", "x=0.015625", "distance_curve.0.0625"]
        buf = io.StringIO()
        csv.writer(buf).writerow(fields)
        assert cli._csv_line(fields) == buf.getvalue()

    @pytest.mark.parametrize("kind", ["neumann", "robin", "gauss"])
    def test_kernel(self, tmp_path, kind):
        from openkpz import kernels

        flags = {"neumann": [], "robin": ["--u", 1.5, "--v", -0.25], "gauss": []}
        assert run(["--out-dir", tmp_path, "kernel", "--kind", kind, "--grid", 8,
                    "--t", 0.05, *flags[kind]]) == 0
        t, xs = 0.05, np.linspace(0.0, 1.0, 9)
        if kind == "gauss":
            rows = [(t, x, 0.0, float(kernels.gauss_kernel(t, x)), 0.0) for x in xs]
        else:
            if kind == "neumann":
                values, bound = kernels.neumann_kernel(t, xs[:, None], xs[None, :])
            else:
                values, bound = kernels.robin_kernel(t, 1.5, -0.25, n=8), ""
            rows = [(t, x, y, values[i, j], bound)
                    for i, x in enumerate(xs) for j, y in enumerate(xs)]
        artifact = tmp_path / f"kernel_{kind}.csv"
        want = _csv_reference(artifact, ("t", "x", "y", "value", "error_bound"), rows)
        assert artifact.read_bytes() == want

    def test_simulate(self, tmp_path):
        from openkpz import shesolver

        assert run(["--out-dir", tmp_path, "simulate", "--paths", 20, "--dx", 0.125,
                    "--t-final", 0.25, "--save-times", "0.125,0.25", "--u", 0.5,
                    "--seed", 3]) == 0
        cfg = shesolver.SimConfig(dx=0.125, t_final=0.25, n_paths=20, seed=3,
                                  save_times=(0.125, 0.25))
        result = shesolver.simulate_she(np.ones(9), shesolver.BoundaryParams(0.5, 0.0), cfg)
        rows = []
        for t in sorted(result.snapshots):
            z = result.valid(t)
            mean, var = z.mean(axis=0), z.var(axis=0, ddof=1)
            rows.extend((t, x, mean[j], var[j], len(z))
                        for j, x in enumerate(np.linspace(0.0, 1.0, 9)))
        artifact = tmp_path / "simulate.csv"
        want = _csv_reference(artifact, ("t", "x", "mean", "variance", "n_effective"), rows)
        assert artifact.read_bytes() == want

    @pytest.mark.parametrize("u, v", [(0.5, -0.5), (1.0, 1.0)])
    def test_sample_stationary(self, tmp_path, u, v):
        from openkpz import stationary

        pcn = ["--burn-in", 10, "--thinning", 2, "--normalization-samples", 100]
        assert run(["--out-dir", tmp_path, "sample-stationary", "--u", u, "--v", v,
                    "--dx", 0.25, "--n-samples", 6, "--seed", 4,
                    *([] if u + v == 0 else pcn)]) == 0
        if u + v == 0:
            samples = stationary.sample_bm_drift(u, 0.25, 6, 4)
        else:
            cfg = stationary.McmcConfig(seed=4, burn_in=10, thinning=2, n_samples=6)
            samples = stationary.sample_stationary_mcmc(u, v, cfg, 0.25).samples
        artifact = tmp_path / "stationary_samples.csv"
        columns = [f"x={x:.6g}" for x in np.linspace(0.0, 1.0, samples.shape[1])]
        want = _csv_reference(artifact, columns, [tuple(row) for row in samples])
        assert artifact.read_bytes() == want

    def test_experiment(self, tmp_path):
        assert run(["--out-dir", tmp_path, "experiment", "coupling", "--t-final", 0.25,
                    "--dx", 0.0625]) == 0
        stats = json.loads((tmp_path / "experiment_coupling.json").read_text())["statistics"]
        rows = []
        for key, value in sorted(stats.items()):
            if isinstance(value, dict):
                rows.extend((f"{key}.{k}", v) for k, v in sorted(value.items()))
            else:
                rows.append((key, value))
        assert len(rows) > 2
        artifact = tmp_path / "experiment_coupling.csv"
        assert artifact.read_bytes() == _csv_reference(artifact, ("statistic", "value"), rows)


class TestOptionsRead:
    @pytest.mark.parametrize("argv, artifact, reads", [
        (["kernel", "--kind", "neumann", "--grid", 4], "kernel_neumann",
         {"kind", "t", "grid"}),
        (["kernel", "--kind", "robin", "--grid", 4], "kernel_robin",
         {"kind", "t", "grid", "u", "v"}),
        (["kernel", "--kind", "gauss", "--grid", 4], "kernel_gauss", {"kind", "t", "grid"}),
        (["experiment", "stationarity", "--n-samples", 60, "--t-final", 0.0625,
          "--dx", 0.0625], "experiment_stationarity", {"u", "v", "n_samples", "t_final", "dx"}),
        (["experiment", "ergodic", "--functional", "max", "--dx", 0.0625],
         "experiment_ergodic", {"u", "v", "functional", "t_final", "dx"}),
        (["experiment", "coupling", "--t-final", 0.125, "--dx", 0.0625],
         "experiment_coupling", {"u", "v", "t_final", "dx"}),
    ])
    def test_config_records_exactly_the_options_read(self, tmp_path, argv, artifact, reads):
        assert run(argv + ["--seed", 2, "--out-dir", tmp_path]) == 0
        header = (tmp_path / f"{artifact}.csv").read_text().splitlines()[0]
        configs = [json.loads(header[len("# config: "):])]
        if argv[0] == "experiment":
            configs.append(json.loads((tmp_path / f"{artifact}.json").read_text())["config"])
        for config in configs:
            assert set(config) == reads | {"seed"}
            assert config["seed"] == 2

    def test_flag_the_experiment_does_not_read_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["--out-dir", tmp_path, "experiment", "coupling", "--functional", "max"])
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_ini_key_only_another_kind_reads_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[kernel]\nkind = gauss\nu = 0.5\nt = 0.2\n")
        assert run(["--config", cfg, "--out-dir", tmp_path / "out", "kernel"]) == 2
        assert "the gauss variant does not read 'u'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_ini_key_the_experiment_does_not_read_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[experiment.coupling]\nfunctional = max\n")
        assert run(["--config", cfg, "--out-dir", tmp_path, "experiment", "coupling"]) == 2
        err = capsys.readouterr().err
        assert "unknown key 'functional' in section [experiment.coupling]" in err
        assert not (tmp_path / "experiment_coupling.json").exists()


class TestExperiment:
    @pytest.mark.parametrize("flags", [["--seed", 7]])
    def test_stationarity_rerun_byte_identical(self, tmp_path, flags):
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["experiment", "stationarity", "--u", 0.5, "--v", -0.5,
                "--n-samples", 120, "--t-final", 0.0625, "--dx", 0.03125]
        for out in (a, b):
            assert run(["--out-dir", out] + base + flags) == 0
        for name in ("experiment_stationarity.json", "experiment_stationarity.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_coupling_report(self, tmp_path):
        assert run(["--out-dir", tmp_path, "experiment", "coupling", "--u", 0,
                    "--v", 0, "--t-final", 0.125, "--dx", 0.03125]) == 0
        payload = json.loads((tmp_path / "experiment_coupling.json").read_text())
        assert "distance_curve" in payload["statistics"]

    def test_too_few_ks_samples_is_config_error_before_any_draw(self, tmp_path, capsys,
                                                                monkeypatch):
        from openkpz import harness

        def forbidden(*args, **kwargs):
            raise AssertionError("sampled or simulated before checking n_samples")

        monkeypatch.setattr(harness, "_initial_ensemble", forbidden)
        monkeypatch.setattr(harness, "simulate_she", forbidden)
        code = run(["--out-dir", tmp_path, "experiment", "stationarity", "--n-samples", 49])
        assert code == 2
        assert "n_samples = 49" in capsys.readouterr().err

    def test_positivity_exclusion_below_ks_minimum_is_exit_3(self, tmp_path, capsys,
                                                            monkeypatch):
        from openkpz import harness
        from openkpz.shesolver import SheResult

        def mostly_lost(z0, params, cfg):
            lost = np.arange(cfg.n_paths) >= 49
            return SheResult({cfg.t_final: np.ones_like(z0)}, lost, cfg)

        monkeypatch.setattr(harness, "simulate_she", mostly_lost)
        code = run(["--out-dir", tmp_path, "experiment", "stationarity", "--n-samples", 60,
                    "--t-final", 0.0625, "--dx", 0.0625])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: positivity exclusion left 49 of 60 paths")
        assert not (tmp_path / "experiment_stationarity.json").exists()

    def test_lost_positivity_is_numerical_failure_exit_3(self, tmp_path, capsys, monkeypatch):
        from openkpz import harness
        from openkpz.shesolver import SheResult

        def lost_path(z0, params, cfg):
            return SheResult({}, np.array([True]), cfg)

        monkeypatch.setattr(harness, "simulate_she", lost_path)
        code = run(["--out-dir", tmp_path, "experiment", "ergodic", "--u", 0.5,
                    "--v", -0.5, "--t-final", 0.5, "--dx", 0.0625])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: positivity exclusion left 0 of 1 paths")
        assert not (tmp_path / "experiment_ergodic.json").exists()

    @pytest.mark.parametrize("argv", [
        ["stationarity", "--n-samples", 60, "--t-final", 0.0625],
        ["ergodic", "--t-final", 0.5],
        ["coupling", "--t-final", 0.125],
    ], ids=lambda argv: argv[0])
    def test_every_experiment_losing_every_path_exits_3(self, tmp_path, capsys, monkeypatch,
                                                        argv):
        from openkpz import harness
        from openkpz.shesolver import SheResult

        def all_lost(z0, params, cfg):
            return SheResult({}, np.ones(cfg.n_paths, dtype=bool), cfg)

        monkeypatch.setattr(harness, "simulate_she", all_lost)
        code = run(["--out-dir", tmp_path / "out", "experiment", *argv, "--dx", 0.0625])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: positivity exclusion left 0 of")
        assert not (tmp_path / "out").exists()

    def test_only_the_option_table_holds_experiment_defaults(self):
        from openkpz import harness

        experiments = {"stationarity": harness.stationarity_experiment,
                       "ergodic": harness.ergodic_average,
                       "coupling": harness.coupling_experiment}
        assert {s for s in cli.OPTIONS if s.startswith("experiment.")} == {
            f"experiment.{name}" for name in experiments}
        for name, experiment in experiments.items():
            params = inspect.signature(experiment).parameters
            for key in (*cli.OPTIONS[f"experiment.{name}"], "seed"):
                assert params[key].default is inspect.Parameter.empty, (name, key)

    def test_ergodic_at_default_options_passes(self, tmp_path):
        # at t_final = 1, dx = 1/64 the batch means were 0.05 time units long,
        # and this seed failed with z = 5.55
        assert run(["--seed", 6, "--out-dir", tmp_path, "experiment", "ergodic"]) == 0

    @pytest.mark.parametrize("name", ["ergodic", "coupling"])
    def test_off_grid_t_final_is_snapped_and_recorded(self, tmp_path, name):
        # dt = 1/512 at dx = 1/16, and 1.001 = 512.512 dt snaps to 513 dt
        assert run(["--out-dir", tmp_path, "experiment", name, "--t-final", 1.001,
                    "--dx", 0.0625]) == 0
        payload = json.loads((tmp_path / f"experiment_{name}.json").read_text())
        assert payload["parameters"]["t_final"] == 513 / 512

    def test_ergodic_path_too_short_for_batch_means_exit_2(self, tmp_path, capsys):
        code = run(["--seed", 4, "--out-dir", tmp_path, "experiment", "ergodic", "--u", 0.5,
                    "--v", 0.5, "--t-final", 0.25, "--dx", 0.0625])
        assert code == 2
        assert "16 samples" in capsys.readouterr().err
        assert not (tmp_path / "experiment_ergodic.json").exists()


class TestFreshInterpreters:
    """Criterion 12 across processes: two interpreters with different string-hash
    seeds print and write the same bytes for one command and one seed."""

    @pytest.mark.parametrize("argv, artifacts", [
        (["simulate", "--paths", 4, "--dx", 0.125, "--t-final", 0.0625], {"simulate.csv"}),
        (["verify-algebra"], set()),
        # 1024 steps, so the path crosses noise blocks
        (["experiment", "coupling", "--dx", 0.125, "--t-final", 8],
         {"experiment_coupling.json", "experiment_coupling.csv"}),
        (["sample-stationary", "--u", 1, "--v", 1, "--dx", 0.0625, "--n-samples", 20,
          "--burn-in", 20, "--thinning", 2, "--normalization-samples", 100],
         {"stationary_samples.csv", "stationary_meta.json"}),
    ], ids=["simulate", "verify-algebra", "coupling", "pcn"])
    def test_same_bytes_under_two_hash_seeds(self, tmp_path, argv, artifacts):
        package_root = str(Path(openkpz.__file__).parent.parent)
        runs = []
        for hash_seed in ("1", "2"):
            cwd = tmp_path / hash_seed
            cwd.mkdir()
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(
                filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
            done = subprocess.run(
                [sys.executable, "-m", "openkpz.cli", "--seed", "3", "--out-dir", "out",
                 *map(str, argv)], cwd=cwd, env=env, capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr.decode()
            written = {p.name: p.read_bytes() for p in (cwd / "out").glob("*")}
            assert set(written) == artifacts and done.stdout
            runs.append((done.stdout, written))
        assert runs[0] == runs[1]
