import csv
import hashlib
import json
import math

import pytest

from cvqpv.cli import EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, _write_json, main


def run(args):
    return main(args)


def strict_json(path):
    """Load a result file, rejecting the non-standard Infinity and NaN constants."""
    def reject(name):
        raise ValueError(f"{path.name}: non-standard JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_non_finite_json_value_fails_loudly(tmp_path):
    with pytest.raises(ValueError):
        _write_json(tmp_path / "x.json", {"value": -math.inf})


class TestBounds:
    def test_default_reproduces_headline(self, capsys, tmp_path):
        assert run(["bounds", "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "eps_tilde" in out
        assert ("honest entropy h(U|P) = 1.047096 bits, "
                "attacker floor h(U|P) + eps/4 = 1.072096 bits") in out
        payload = json.loads((tmp_path / "bounds.json").read_text())
        assert payload["feasible"]
        assert abs(payload["eps_tilde_max"] - 0.0037) < 5e-5
        assert payload["honest_entropy_bits"] == pytest.approx(1.0471, abs=1e-4)
        assert payload["attacker_floor_bits"] == payload["honest_entropy_bits"] + 0.1 / 4.0
        assert (tmp_path / "condition_surface.csv").exists()
        assert (tmp_path / "metadata.json").exists()

    def test_infeasible_exit_code(self, tmp_path):
        assert run(["bounds", "--t", "0.5", "--out", str(tmp_path)]) == EXIT_INFEASIBLE
        payload = json.loads((tmp_path / "bounds.json").read_text())
        assert payload["feasible"] is False

    def test_zero_transmission_cap_is_null(self, capsys, tmp_path):
        assert run(["bounds", "--t", "0", "--out", str(tmp_path)]) == EXIT_INFEASIBLE
        assert "= -inf" in capsys.readouterr().out
        payload = strict_json(tmp_path / "bounds.json")
        assert payload["feasible"] is False and payload["eps_cap"] is None


class TestResources:
    def test_reference_factor(self, capsys):
        assert run(["resources", "--n", "30", "--m0", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "(ceiled 12)" in out
        assert "q <= 5" in out

    def test_out_of_regime_warning(self, capsys):
        assert run(["resources", "--n", "20", "--m0", "5"]) == EXIT_OK
        assert "outside the closed-form regime" in capsys.readouterr().out

    def test_no_budget_exit(self, capsys):
        assert run(["resources", "--n", "10", "--m0", "9"]) == EXIT_INFEASIBLE

    def test_overflowing_count_bound_is_no_budget(self, capsys, tmp_path):
        # 2^(2q+2m0) and 2^m0 log2(lambda) leave float range at m0 = 2000
        assert run(["resources", "--m0", "2000", "--out", str(tmp_path)]) == EXIT_INFEASIBLE
        out = capsys.readouterr().out
        assert "numeric q_max = -1" in out
        assert "log2(lambda^(2^m0)) = -inf" in out
        payload = json.loads((tmp_path / "resources.json").read_text())
        assert payload["q_max"] == -1

    def test_saturated_cutoff_log2_is_null(self, capsys, tmp_path):
        assert run(["resources", "--m0", "2000", "--out", str(tmp_path)]) == EXIT_INFEASIBLE
        assert "log2(lambda^(2^m0)) = -inf" in capsys.readouterr().out
        assert strict_json(tmp_path / "resources.json")["cutoff_error_log2"] is None

    def test_unresolvable_eps_tilde_is_an_error(self, capsys):
        assert run(["resources", "--eps-tilde", "1e-17"]) == EXIT_ERROR
        assert "too small for a resolvable rounding factor" in capsys.readouterr().err

    def test_net_error_above_eps_tilde_is_an_error(self, capsys):
        # (1+delta)^3 - 1 rounds to at least eps_tilde/2 here
        assert run(["resources", "--eps-tilde", "1e-15"]) == EXIT_ERROR
        assert "too small for a resolvable rounding factor" in capsys.readouterr().err

    def test_lambda_rounding_to_one_still_reports(self, tmp_path):
        # lambda_of_sigma(1e8) rounds to 1.0; log2 lambda^(2^m0) does not need it
        assert run(["resources", "--sigma", "1e8", "--out", str(tmp_path)]) == EXIT_OK
        value = strict_json(tmp_path / "resources.json")["cutoff_error_log2"]
        assert value == pytest.approx(-2.3083e-15, rel=1e-4, abs=0.0)


class TestRounds:
    def test_finite_plan(self, capsys):
        assert run(["rounds", "--eps", "0.1", "--u", "0", "--eps-hon", "0.01"]) == EXIT_OK
        assert "N = " in capsys.readouterr().out

    def test_default_line(self, capsys):
        assert run(["rounds"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "N = 139999, gamma = 1.011537, Delta = 0.039735, score variance = 2.210342\n")

    def test_huge_values_print_in_exponent_form(self, capsys):
        # Delta ~ 1e152 and the score variance ~ 2e304 at eps = 700
        assert run(["rounds", "--eps", "700"]) == EXIT_OK
        (line,) = capsys.readouterr().out.splitlines()
        for field in line.split(", "):
            _name, value = field.split(" = ")
            assert len(value) <= 20
            float(value)

    def test_no_margin_structured(self, capsys):
        assert run(["rounds", "--eps", "0"]) == EXIT_INFEASIBLE
        assert "no margin" in capsys.readouterr().out


class TestFeasibility:
    def test_reference_points_feasible(self, capsys, tmp_path):
        assert run(["feasibility", "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("feasible=True") == 3
        grid = (tmp_path / "feasibility_grid.csv").read_bytes()
        assert grid.startswith(b"u,t,margin,feasible\r\n")

    def test_json_format(self, tmp_path):
        assert run(["feasibility", "--out", str(tmp_path), "--format", "json"]) == EXIT_OK
        payload = json.loads((tmp_path / "feasibility_grid.json").read_text())
        assert payload["columns"] == ["u", "t", "margin", "feasible"]

    def test_margin_fields_are_plain_floats(self, tmp_path):
        assert run(["feasibility", "--out", str(tmp_path / "csv")]) == EXIT_OK
        assert run(["feasibility", "--format", "json", "--out", str(tmp_path / "json")]) == EXIT_OK
        with open(tmp_path / "csv" / "feasibility_grid.csv", newline="") as fh:
            csv_rows = list(csv.reader(fh))[1:]
        json_rows = json.loads((tmp_path / "json" / "feasibility_grid.json").read_text())["rows"]
        assert len(csv_rows) == len(json_rows) == 31 * 26
        for u, t, margin, _feasible in csv_rows + json_rows:
            assert float(margin) == 4.0 * float(t) - math.e * (1.0 + 2.0 * float(u))


class TestSimulate:
    def test_deterministic_outputs(self, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        args = ["simulate", "--rounds", "3000", "--sessions", "30", "--seed", "11", "--trace"]
        assert run(args + ["--out", str(d1)]) == EXIT_OK
        assert run(args + ["--out", str(d2)]) == EXIT_OK
        for name in ["simulate.json", "metadata.json", "honest_rounds.csv", "honest_session.json"]:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_summary_fields(self, tmp_path):
        assert run(["simulate", "--rounds", "2000", "--sessions", "10", "--out",
                    str(tmp_path)]) == EXIT_OK
        payload = json.loads((tmp_path / "simulate.json").read_text())
        assert 0.0 <= payload["honest_acceptance"] <= 1.0
        assert payload["rounds"] == 2000

    def test_no_margin_structured(self, capsys, tmp_path):
        # same NoMarginError and exit code as `rounds --eps 0`
        assert run(["simulate", "--eps", "0", "--out", str(tmp_path)]) == EXIT_INFEASIBLE
        assert "no margin" in capsys.readouterr().out
        payload = json.loads((tmp_path / "simulate.json").read_text())
        assert payload["feasible"] is False

    @pytest.mark.parametrize("n", ["0", "64", "70"])
    def test_string_length_checked_before_output(self, capsys, tmp_path, n):
        out = tmp_path / "run"
        assert run(["simulate", "--n", n, "--trace", "--rounds", "100", "--sessions", "2",
                    "--out", str(out)]) == EXIT_ERROR
        assert "n: must lie in [1, 63]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--rounds", "-5"], "rounds: must be >= 0"),
        (["--sessions", "0", "--rounds", "100"], "sessions: must be >= 1"),
        (["--sessions", "-3", "--rounds", "100"], "sessions: must be >= 1"),
    ])
    def test_round_and_session_counts_checked_before_output(self, capsys, tmp_path, flags,
                                                            message):
        out = tmp_path / "run"
        assert run(["simulate", *flags, "--out", str(out)]) == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_trace_bytes_pinned(self, tmp_path):
        # digest of the row-by-row csv.writer trace this writer replaced
        assert run(["simulate", "--sessions", "2", "--trace", "--seed", "11",
                    "--out", str(tmp_path)]) == EXIT_OK
        digest = hashlib.sha256((tmp_path / "honest_rounds.csv").read_bytes()).hexdigest()
        assert digest == "3fbe6ab1f0aac91cfe82519ed753e9da960f30e89890ef0d98ed69dee8bbb7e8"

    def test_longest_strings_run(self, tmp_path):
        assert run(["simulate", "--n", "63", "--trace", "--rounds", "100", "--sessions", "2",
                    "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "honest_rounds.csv").exists()


class TestSweep:
    def test_table(self, tmp_path):
        assert run(["sweep", "--n-lo", "24", "--n-hi", "26", "--m0-lo", "2", "--m0-hi", "3",
                    "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "resource_sweep.csv").read_text().splitlines()
        assert lines[0] == "n,m0,k_factor,q_max,corollary_q"
        assert len(lines) == 7

    def test_overflowing_m0_has_no_budget(self, tmp_path):
        assert run(["sweep", "--n-lo", "30", "--n-hi", "30", "--m0-lo", "598", "--m0-hi", "600",
                    "--out", str(tmp_path)]) == EXIT_OK
        lines = (tmp_path / "resource_sweep.csv").read_text().splitlines()
        assert [line.split(",")[3] for line in lines[1:]] == ["-1", "-1", "-1"]


class TestErrorExit:
    @pytest.mark.parametrize("argv", [
        ["resources", "--n", "41"],
        ["sweep", "--m0-lo", "0"],
        ["feasibility", "--u-steps", "0"],
        ["simulate", "--seed", "-1", "--rounds", "100", "--sessions", "2"],
        ["rounds", "--eps", "1000"],
        ["sweep", "--n-lo", "30", "--n-hi", "20"],
    ])
    def test_error_after_validation_leaves_no_output(self, capsys, tmp_path, argv):
        fresh = tmp_path / "new" / "run"
        assert run(argv + ["--out", str(fresh)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "new").exists()
        # a directory that was there before survives, with nothing written into it
        kept = tmp_path / "kept"
        kept.mkdir()
        (kept / "notes.txt").write_text("keep\n")
        assert run(argv + ["--out", str(kept)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error:")
        assert [p.name for p in kept.iterdir()] == ["notes.txt"]


class TestSharedParser:
    def test_trace_flag_does_not_carry_over(self, tmp_path):
        args = ["simulate", "--rounds", "200", "--sessions", "2"]
        assert run(args + ["--trace", "--out", str(tmp_path / "a")]) == EXIT_OK
        assert run(args + ["--out", str(tmp_path / "b")]) == EXIT_OK
        assert (tmp_path / "a" / "honest_rounds.csv").exists()
        assert not (tmp_path / "b" / "honest_rounds.csv").exists()

    def test_range_flags_do_not_carry_over(self, tmp_path):
        assert run(["sweep", "--n-lo", "30", "--out", str(tmp_path / "a")]) == EXIT_OK
        assert run(["sweep", "--out", str(tmp_path / "b")]) == EXIT_OK
        assert len((tmp_path / "a" / "resource_sweep.csv").read_text().splitlines()) == 1 + 110
        assert len((tmp_path / "b" / "resource_sweep.csv").read_text().splitlines()) == 1 + 190


class TestConfig:
    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# reference resource point\nn = 30\nm0 = 5\neps-tilde = 0.004\n")
        assert run(["resources", "--config", str(cfg)]) == EXIT_OK
        assert "q <= 5" in capsys.readouterr().out
        # flag wins over the file
        assert run(["resources", "--config", str(cfg), "--m0", "9"]) == EXIT_OK
        assert "q <= 1" in capsys.readouterr().out

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert run(["resources", "--config", str(cfg)]) == EXIT_ERROR
        assert "unknown config key" in capsys.readouterr().err

    def test_aggregated_validation_errors(self, capsys):
        assert run(["bounds", "--t", "1.5", "--u", "-1"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "t: must lie in [0,1]" in err
        assert "u: must be nonnegative" in err

    @pytest.mark.parametrize("key", ["eps", "energy", "t", "u", "sigma", "eps-tilde",
                                     "eps-hon"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_rejected_before_output(self, capsys, tmp_path, key, value):
        out = tmp_path / "run"
        assert run(["simulate", f"--{key}={value}", "--rounds", "100", "--sessions", "2",
                    "--out", str(out)]) == EXIT_ERROR
        assert f"{key.replace('-', '_')}: must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_rejected_from_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sigma = inf\n")
        out = tmp_path / "run"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_ERROR
        assert "sigma: must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_metadata_echoes_config(self, tmp_path):
        assert run(["bounds", "--seed", "77", "--out", str(tmp_path)]) == EXIT_OK
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["config"]["seed"] == 77
        assert meta["config"]["command"] == "bounds"
