import csv
import hashlib
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cvqpv import cli
from cvqpv.cli import (
    COMMANDS,
    EXIT_ERROR,
    EXIT_INFEASIBLE,
    EXIT_OK,
    PARAMS,
    _write_json,
    build_parser,
    main,
)
from cvqpv.protocol import RoundTrace
from test_bounds import CALC_TABLE_DIGEST, CALC_TABLE_GRID


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

    @pytest.mark.parametrize("args", [["--u", "1e308"],
                                      ["--energy", "0.1", "--t", "5e-324",
                                       "--u", "7.736917479332954e+307"]])
    def test_underflowing_cap_is_null(self, capsys, tmp_path, args):
        # 4t / (e(1+2u)) is 0 in floating point: an infeasible channel, not a math error
        assert run(["bounds", *args, "--out", str(tmp_path)]) == EXIT_INFEASIBLE
        assert "= -inf" in capsys.readouterr().out
        payload = strict_json(tmp_path / "bounds.json")
        assert payload["feasible"] is False and payload["eps_cap"] is None

    def test_eps_just_below_cap_is_infeasible(self, tmp_path):
        # below eps_cap(1, 0) = 0.2786524795555183 by 1e-7: no bisection midpoint has a margin
        assert run(["bounds", "--eps", "0.2786523795555183", "--out",
                    str(tmp_path)]) == EXIT_INFEASIBLE
        assert strict_json(tmp_path / "bounds.json")["feasible"] is False


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

    def test_zero_budget_is_a_budget(self, tmp_path):
        # q_max = 0 is a budget of one query: exit 0, with the bound at q = 0 reported
        assert run(["resources", "--n", "10", "--m0", "1", "--eps-tilde", "0.004",
                    "--out", str(tmp_path)]) == EXIT_OK
        payload = strict_json(tmp_path / "resources.json")
        assert payload["q_max"] == 0
        assert isinstance(payload["log2_count_bound_at_qmax"], float)

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
        # 4 / (cbrt(4(2+et)) - 2) overflows below eps_tilde of about 7e-308
        assert run(["resources", "--eps-tilde", "1e-310"]) == EXIT_ERROR
        assert "too small for a resolvable rounding factor" in capsys.readouterr().err

    @pytest.mark.parametrize("eps_tilde,factor", [
        # the double nearest log2(1 + 4/(cbrt(4(2+et)) - 2)), from 50-digit decimal arithmetic
        ("1e-15", 53.413883924031595),
        ("1e-17", 60.05774011380632),
    ], ids=["1e-15", "1e-17"])
    def test_tiny_eps_tilde_reports_exact_factor(self, tmp_path, eps_tilde, factor):
        assert run(["resources", "--eps-tilde", eps_tilde, "--out", str(tmp_path)]) == EXIT_OK
        payload = strict_json(tmp_path / "resources.json")
        assert payload["k_factor_real"] == pytest.approx(factor, rel=4e-16)
        assert payload["k_factor_int"] == math.ceil(factor)

    def test_lambda_rounding_to_one_still_reports(self, tmp_path):
        # lambda rounds to 1.0 at sigma = 1e8; log2 lambda^(2^m0) does not need it
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

    def test_overflowing_variance_names_eps(self, capsys):
        assert run(["rounds", "--eps", "709.5"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: eps = 709.5 overflows the attacker's score variance\n")

    def test_no_margin_structured(self, capsys):
        assert run(["rounds", "--eps", "0"]) == EXIT_INFEASIBLE
        assert "no margin" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["rounds", "simulate"])
    def test_huge_noise_has_no_margin(self, capsys, tmp_path, command):
        # the attacker's score variance underflows to 0 at u = 1e200; the margin goes first
        assert run([command, "--u", "1e200", "--out", str(tmp_path)]) == EXIT_INFEASIBLE
        assert capsys.readouterr().out.startswith("no margin: ")
        assert strict_json(tmp_path / f"{command}.json")["feasible"] is False

    def test_tiny_honest_budget_has_no_plan(self, capsys):
        # score_variance / eps_hon overflows, so no N meets the Chebyshev condition
        assert run(["rounds", "--eps-hon", "1e-310"]) == EXIT_INFEASIBLE
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


    def test_one_point_grid(self, tmp_path):
        # a one-point axis is its start, as np.linspace gives it
        assert run(["feasibility", "--u-steps", "1", "--t-steps", "1", "--out",
                    str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "feasibility_grid.csv", newline="") as fh:
            assert list(csv.reader(fh)) == [["u", "t", "margin", "feasible"],
                                            ["0.0", "0.5", repr(2.0 - math.e), "0"]]


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

    def test_without_out_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["simulate", "--rounds", "200", "--sessions", "2"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "honest acceptance rate" in out and "attacker acceptance rate" in out
        assert list(tmp_path.iterdir()) == []

    def test_no_margin_structured(self, capsys, tmp_path):
        # same NoMarginError and exit code as `rounds --eps 0`
        assert run(["simulate", "--eps", "0", "--out", str(tmp_path)]) == EXIT_INFEASIBLE
        assert "no margin" in capsys.readouterr().out
        payload = json.loads((tmp_path / "simulate.json").read_text())
        assert payload["feasible"] is False

    def test_trace_out_of_float_range_is_an_error(self, capsys, tmp_path):
        # r draws overflow at this sigma, so the traced session has no finite score
        out = tmp_path / "run"
        assert run(["simulate", "--sigma", "1.7976931348623157e308", "--trace", "--rounds",
                    "100", "--sessions", "2", "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: score terms leave float range")
        assert not out.exists()

    def test_trace_beyond_float64_resolution_is_an_error(self, capsys, tmp_path):
        # r' - sqrt(t) r cancels the response noise: every score term would read 0.0
        out = tmp_path / "run"
        assert run(["simulate", "--sigma", "1e17", "--trace", "--rounds", "1000", "--sessions",
                    "1", "--out", str(out)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: float64 cannot resolve the score terms")
        assert not out.exists()

    def test_trace_at_large_sigma_is_written(self, tmp_path):
        assert run(["simulate", "--sigma", "1e6", "--trace", "--rounds", "1000", "--sessions",
                    "1", "--out", str(tmp_path)]) == EXIT_OK
        with open(tmp_path / "honest_rounds.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) == 1001

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
        (["--seed", "-1", "--rounds", "100"], "seed: must lie in [0, 2^64)"),
        (["--seed", str(2**64), "--trace", "--rounds", "100"], "seed: must lie in [0, 2^64)"),
    ])
    def test_round_and_session_counts_checked_before_output(self, capsys, tmp_path, flags,
                                                            message):
        out = tmp_path / "run"
        assert run(["simulate", *flags, "--out", str(out)]) == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_tiny_honest_budget_has_finite_gamma(self, tmp_path):
        # 1/eps_hon overflows below about 5.6e-309; gamma takes -log(eps_hon) there
        assert run(["simulate", "--eps-hon", "1e-310", "--rounds", "100", "--sessions", "2",
                    "--out", str(tmp_path)]) == EXIT_OK
        log_term = 310.0 * math.log(10.0)
        assert strict_json(tmp_path / "simulate.json")["gamma"] == pytest.approx(
            1.0 + 2.0 * math.sqrt(log_term / 100) + 2.0 * log_term / 100)

    def test_regime_flags_in_both_files(self, tmp_path):
        out = tmp_path / "run"
        assert run(["simulate", "--t", "0.4", "--sessions", "2", "--rounds", "100", "--trace",
                    "--out", str(out)]) == EXIT_OK
        for name in ["simulate.json", "honest_session.json"]:
            assert strict_json(out / name)["regime_flags"] == [
                "channel-infeasible", "generic-attack-regime"]

    def test_longest_strings_run(self, tmp_path):
        assert run(["simulate", "--n", "63", "--trace", "--rounds", "100", "--sessions", "2",
                    "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "honest_rounds.csv").exists()


def serial_rounds_csv(trace) -> bytes:
    """The trace CSV of a plain repr loop, kept as the byte oracle of the orjson writer."""
    theta_text = (repr(0.0), repr(math.pi / 2.0))
    rows = zip(range(len(trace.r)), map(theta_text.__getitem__, trace.basis.tolist()),
               *(col.tolist() for col in trace[1:]))
    return ("index,theta,r,r_prime,score_term\r\n"
            + "".join([f"{i},{theta},{r!r},{r_prime!r},{term!r}\r\n"
                       for i, theta, r, r_prime, term in rows])).encode()


def random_trace(n):
    rng = np.random.default_rng(n)
    r = rng.normal(0.0, 10.0, n)
    r_prime = r + rng.normal(0.0, 1.0, n)
    return RoundTrace(rng.integers(0, 2, n, dtype=np.uint8), r, r_prime, (r_prime - r) ** 2 / 0.5)


def trace_of(values):
    """A trace whose r, r_prime and score_term columns are values, -values and values[::-1]."""
    values = np.array(values, dtype=float)
    basis = np.arange(len(values), dtype=np.uint8) % 2
    return RoundTrace(basis, values, -values, values[::-1])


def failing_rows(when, failure):
    """A _csv_rows that raises failure "before first chunk" or "after first chunk"."""
    real_rows = cli._csv_rows

    def rows(trace):
        if when == "after first chunk":
            yield next(real_rows(trace))
        raise failure("formatter failed")

    return rows


# orjson's float text equals repr's from 1e-4 up to 1e16; both switch points,
# each side of them, and the extremes of the float range
SWITCH_POINTS = [v for x in (1e-4, 1e16) for v in (np.nextafter(x, 0.0), x, np.nextafter(x, np.inf))]
EXTREMES = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, math.inf, math.nan]


class TestTraceWriter:
    @pytest.mark.parametrize("n", [1, 2, 3, 8191, 8192, 8193, 16385, 16386, 139999])
    def test_bytes_match_the_serial_writer(self, tmp_path, n):
        trace = random_trace(n)
        cli.write_rounds_csv(trace, tmp_path / "honest_rounds.csv")
        assert (tmp_path / "honest_rounds.csv").read_bytes() == serial_rounds_csv(trace)

    def test_switch_points_match_the_serial_writer(self, tmp_path):
        trace = trace_of([sign * x for x in SWITCH_POINTS + EXTREMES for sign in (1.0, -1.0)])
        cli.write_rounds_csv(trace, tmp_path / "honest_rounds.csv")
        text = (tmp_path / "honest_rounds.csv").read_bytes()
        assert text == serial_rounds_csv(trace)
        assert b",1e+16," in text and b",nan," in text

    @settings(derandomize=True, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(values=st.lists(st.floats(), min_size=1, max_size=12))
    def test_any_floats_match_the_serial_writer(self, tmp_path, values):
        trace = trace_of(values)
        cli.write_rounds_csv(trace, tmp_path / "honest_rounds.csv")
        assert (tmp_path / "honest_rounds.csv").read_bytes() == serial_rounds_csv(trace)

    @pytest.mark.parametrize("column", [1, 2, 3])
    @pytest.mark.parametrize("value", [9.999999999999999e-05, -1e-7, 1e16, -1e300, 5e-324,
                                       math.inf, -math.inf, math.nan])
    def test_one_odd_float_in_a_row_matches_the_serial_writer(self, tmp_path, column, value):
        # the row's other two floats print alike in orjson and repr; the odd one does not
        cols = [np.array([1.5, 0.25, -2.0]), np.array([-3.0, 0.5, 1e-3]), np.array([2.0, 7.0, 0.0])]
        cols[column - 1][1] = value
        trace = RoundTrace(np.array([0, 1, 0], dtype=np.uint8), *cols)
        cli.write_rounds_csv(trace, tmp_path / "honest_rounds.csv")
        text = (tmp_path / "honest_rounds.csv").read_bytes()
        assert text == serial_rounds_csv(trace)
        assert repr(value).encode() in text.split(b"\r\n")[2]

    def test_odd_rows_at_the_chunk_edges_match_the_serial_writer(self, tmp_path):
        trace = random_trace(20000)
        for row, col in zip([8191, 8192, 8193], trace[1:]):
            col[row] = 1e-9 * (row - 8190)
        cli.write_rounds_csv(trace, tmp_path / "honest_rounds.csv")
        assert (tmp_path / "honest_rounds.csv").read_bytes() == serial_rounds_csv(trace)

    def test_a_chunk_of_odd_rows_matches_the_serial_writer(self, tmp_path):
        trace = random_trace(20000)
        trace.score_term[8192:16384] *= 1e-12  # every row of the second chunk
        cli.write_rounds_csv(trace, tmp_path / "honest_rounds.csv")
        assert (tmp_path / "honest_rounds.csv").read_bytes() == serial_rounds_csv(trace)

    def test_strided_columns_match_the_serial_writer(self, tmp_path):
        big = random_trace(2 * 8200)
        big.r[::50] *= 1e20
        trace = RoundTrace(big.basis[::2], big.r[::2], big.r_prime[1::2], big.score_term[::-2])
        assert not any(col.flags.c_contiguous for col in trace)
        cli.write_rounds_csv(trace, tmp_path / "honest_rounds.csv")
        assert (tmp_path / "honest_rounds.csv").read_bytes() == serial_rounds_csv(trace)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("when", ["before first chunk", "after first chunk"])
    def test_failed_write_leaves_no_trace(self, capsys, tmp_path, monkeypatch, when):
        monkeypatch.setattr(cli, "_csv_rows", failing_rows(when, ValueError))
        kept = tmp_path / "kept"
        kept.mkdir()
        fds = set(os.listdir("/proc/self/fd"))
        argv = ["simulate", "--trace", "--sessions", "2", "--rounds", "100", "--out", str(kept)]
        assert run(argv) == EXIT_ERROR
        assert set(os.listdir("/proc/self/fd")) == fds
        assert capsys.readouterr().err == "error: formatter failed\n"
        assert list(kept.iterdir()) == []

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("when,failure", [
        (None, None),
        ("before first chunk", ValueError),
        ("after first chunk", ValueError),
        # not an Exception: the writer still removes its file
        ("after first chunk", KeyboardInterrupt),
    ])
    def test_no_descriptor_or_stray_file_left(self, tmp_path, monkeypatch, when, failure):
        if when is not None:
            monkeypatch.setattr(cli, "_csv_rows", failing_rows(when, failure))
        fds = set(os.listdir("/proc/self/fd"))
        path = tmp_path / "honest_rounds.csv"
        try:
            cli.write_rounds_csv(random_trace(20000), path)
        except (ValueError, KeyboardInterrupt):
            assert when is not None
        else:
            assert when is None
        assert set(os.listdir("/proc/self/fd")) == fds
        assert list(tmp_path.iterdir()) == ([] if when else [path])


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
        ["resources", "--eps-tilde", "1e-310"],
        ["sweep", "--m0-lo", "0"],
        ["feasibility", "--u-steps", "0"],
        ["simulate", "--eps", "800", "--sessions", "2"],
        ["rounds", "--eps", "1000"],
        ["sweep", "--n-lo", "30", "--n-hi", "20"],
        # the traced session fails its finiteness check, which runs before any write
        ["simulate", "--sigma", "1e308", "--trace", "--sessions", "2", "--rounds", "1000"],
        # the floor and its square are finite, twice the square is not
        ["rounds", "--eps", "709.5"],
        ["simulate", "--eps", "709.5"],
        ["rounds", "--eps", "1023.5", "--eps-unit", "bits"],
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

    def test_memory_error_leaves_no_output(self, capsys, tmp_path, monkeypatch):
        # raised in place of a real allocation, which could exhaust the host
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "run_session", out_of_memory)
        argv = ["simulate", "--trace", "--sessions", "2", "--rounds", "100", "--out"]
        fresh = tmp_path / "new" / "run"
        assert run(argv + [str(fresh)]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: MemoryError\n"
        assert not (tmp_path / "new").exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        assert run(argv + [str(kept)]) == EXIT_ERROR
        assert list(kept.iterdir()) == []

    def test_missing_orjson_leaves_no_output(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "orjson", None)  # import orjson now raises ImportError
        fresh = tmp_path / "new" / "run"
        argv = ["simulate", "--trace", "--rounds", "100", "--sessions", "2", "--out", str(fresh)]
        assert run(argv) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "new").exists()


    @pytest.mark.parametrize("argv,message", [
        (["resources", "--n", "64"], "n: must lie in [1, 63]"),
        (["sweep", "--n-hi", "64"], "n_hi: must lie in [1, 63]"),
        (["sweep", "--n-lo", "64", "--n-hi", "65"], "n_lo: must lie in [1, 63]"),
    ])
    def test_n_beyond_the_float_evaluation_rejected_before_output(self, capsys, tmp_path, argv,
                                                                  message):
        out = tmp_path / "run"
        assert run(argv + ["--out", str(out)]) == EXIT_ERROR
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,limit", [
        ("resources", "--n", "[1, 63]"), ("simulate", "--n", "[1, 63]"),
        ("sweep", "--n-lo", "[1, 63]"), ("sweep", "--n-hi", "[1, 63]"),
    ])
    def test_help_names_the_n_limit(self, command, flag, limit):
        subparser = build_parser()._subparsers._group_actions[0].choices[command]
        flag_help = next(a.help for a in subparser._actions if flag in a.option_strings)
        assert f"; must lie in {limit} (default" in flag_help


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["feasibility", "--sessions", "3"],  # a flag the subcommand does not take
        ["rounds", "--format", "json"],
        ["feasibility", "--t", "1"],  # not taken, and no abbreviation of --t-steps
        ["feasibility", "--bogus", "1"],
        ["bounds", "--eps"],  # a flag without its value
        [],  # no subcommand
    ], ids=["dropped", "dropped-format", "no-abbreviation", "unknown", "no-value", "no-command"])
    def test_usage_error_exits_1_without_output(self, capsys, tmp_path, argv):
        out = tmp_path / "run"
        assert run(argv + ["--out", str(out)]) == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--help"])
        assert exc.value.code == 0
        assert "--eps-hon" in capsys.readouterr().out


# the keys each subcommand reads, besides seed
TAKES = {
    "feasibility": {"u_steps", "t_steps", "format"},
    "bounds": {"eps", "energy", "t", "u", "format"},
    "resources": {"n", "m0", "eps_tilde", "sigma"},
    "rounds": {"eps", "u", "eps_hon", "eps_unit"},
    "simulate": {"eps", "t", "u", "sigma", "n", "eps_hon", "rounds", "sessions", "eps_unit",
                 "trace"},
    "sweep": {"eps_tilde", "n_lo", "n_hi", "m0_lo", "m0_hi", "format"},
}


class TestParamTable:
    @pytest.mark.parametrize("command", sorted(TAKES))
    def test_parser_takes_the_table_rows(self, command):
        rows = {key for key, p in PARAMS.items() if command in p.commands.split()}
        assert rows == TAKES[command] | {"seed"}
        subparsers = build_parser()._subparsers._group_actions[0].choices
        flags = {flag for action in subparsers[command]._actions
                 for flag in action.option_strings} - {"-h", "--help"}
        assert flags == {PARAMS[key].flag for key in rows} | {"--config", "--out"}

    @pytest.mark.parametrize("command", sorted(TAKES))
    def test_metadata_echoes_the_taken_keys(self, tmp_path, command):
        argv = [command, "--out", str(tmp_path)]
        if command == "simulate":
            argv += ["--rounds", "100", "--sessions", "2"]
        assert run(argv) == EXIT_OK
        config = strict_json(tmp_path / "metadata.json")["config"]
        assert set(config) == TAKES[command] | {"seed", "command"}

    @pytest.mark.parametrize("command", sorted(TAKES))
    def test_flag_tables_list_the_table_rows(self, command):
        # the README table and the cli.py docstring table, each without --seed
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        readme_flags = {m[1]: set(re.findall(r"`(--[\w-]+)`", m[2]))
                        for m in re.finditer(r"^\| `(\w+)` \| (.*) \|$", readme, re.M)}
        doc_flags = {m[1]: set(m[2].split())
                     for m in re.finditer(r"^    (\w+) +(--.*)$", cli.__doc__, re.M)}
        rows = {p.flag for p in PARAMS.values() if command in p.commands.split()} - {"--seed"}
        assert readme_flags[command] == rows
        assert doc_flags[command] == rows


class TestEpsUnit:
    @pytest.mark.parametrize("bits,N", [(0.05, 1_143_262), (0.1, 288_755), (0.2, 73_687),
                                        (0.5, 12_546), (1.0, 3_484)])
    def test_bits_reading(self, tmp_path, bits, N):
        assert run(["rounds", "--eps-unit", "bits", "--eps", repr(bits),
                    "--out", str(tmp_path)]) == EXIT_OK
        plan = strict_json(tmp_path / "rounds.json")
        assert plan["N"] == N
        ratio = 0.5 * 2.0 ** (bits / 2.0) / 0.5  # the floor (1/2) 2^(b/2) over 1/2 + u
        assert plan["delta"] == pytest.approx(ratio - plan["gamma"], rel=1e-15)
        assert plan["score_variance"] == pytest.approx(2.0 * ratio**2, rel=1e-15)

    def test_unknown_unit_rejected_before_output(self, capsys, tmp_path):
        out = tmp_path / "run"
        assert run(["rounds", "--eps-unit", "furlongs", "--out", str(out)]) == EXIT_ERROR
        assert "eps_unit: must be 'nats' or 'bits'" in capsys.readouterr().err
        assert not out.exists()


class TestSharedParser:
    def test_trace_flag_takes_0_or_1(self, capsys, tmp_path):
        args = ["simulate", "--rounds", "200", "--sessions", "2"]
        assert run(args + ["--trace", "0", "--out", str(tmp_path / "a")]) == EXIT_OK
        assert run(args + ["--trace=1", "--out", str(tmp_path / "b")]) == EXIT_OK
        assert not (tmp_path / "a" / "honest_rounds.csv").exists()
        assert (tmp_path / "b" / "honest_rounds.csv").exists()
        assert run(args + ["--trace", "2", "--out", str(tmp_path / "c")]) == EXIT_ERROR
        assert "trace: must lie in [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()

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

    def test_trace_from_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("trace = 1\nrounds = 200\nsessions = 2\n")
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK
        assert (tmp_path / "a" / "honest_rounds.csv").exists()
        assert strict_json(tmp_path / "a" / "metadata.json")["config"]["trace"] == 1
        # the flag overrides the file
        assert run(["simulate", "--config", str(cfg), "--trace", "0",
                    "--out", str(tmp_path / "b")]) == EXIT_OK
        assert not (tmp_path / "b" / "honest_rounds.csv").exists()

    def test_line_without_equals_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n 30\n")
        assert run(["resources", "--config", str(cfg)]) == EXIT_ERROR
        assert "expected key=value" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense = 1\n")
        assert run(["resources", "--config", str(cfg)]) == EXIT_ERROR
        assert "unknown config key" in capsys.readouterr().err

    def test_open_lower_bound_excludes_its_value(self, capsys):
        assert run(["bounds", "--energy", "0"]) == EXIT_ERROR
        assert "energy: must be > 0" in capsys.readouterr().err

    def test_aggregated_validation_errors(self, capsys):
        assert run(["bounds", "--t", "1.5", "--u", "-1"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "t: must lie in [0, 1]" in err
        assert "u: must be >= 0" in err

    @pytest.mark.parametrize("key", ["eps", "energy", "t", "u", "sigma", "eps-tilde",
                                     "eps-hon"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_rejected_before_output(self, capsys, tmp_path, key, value):
        out = tmp_path / "run"
        command = {"energy": ["bounds"], "eps-tilde": ["resources"]}.get(
            key, ["simulate", "--rounds", "100", "--sessions", "2"])
        assert run([*command, f"--{key}={value}", "--out", str(out)]) == EXIT_ERROR
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

    def test_every_table_key_in_one_file(self, tmp_path):
        values = {key: p.default for key, p in PARAMS.items()} | {"seed": 5}
        cfg = tmp_path / "all.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in values.items()))
        for command in COMMANDS:
            out = tmp_path / command
            assert run([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK, command
            assert json.loads((out / "metadata.json").read_text())["config"]["seed"] == 5
        # a key the subcommand does not take is ignored, not checked
        cfg.write_text("sessions = 0\n")
        assert run(["feasibility", "--config", str(cfg)]) == EXIT_OK

    def test_seed_domain_holds_for_every_subcommand(self, capsys):
        assert run(["bounds", "--seed", "-1"]) == EXIT_ERROR
        assert "seed: must lie in [0, 2^64)" in capsys.readouterr().err


# SHA-256 of every --out file at seed 11: the perfbench cli_outputs calls and
# bounds --format json at the three TABLE_POINTS. Recorded with the per-cell
# csv.writer/json.dumps table writers and the per-row repr trace writer (whose
# honest_rounds.csv matched the row-by-row csv.writer trace before it), except
# resources.json, recorded after rounding_size_logfactor stopped cancelling
# (k_factor_real 11.552188332945317 -> 11.552188332945429), and metadata.json,
# recorded once it echoed only the keys its subcommand takes (simulate's once
# trace became one of them), and condition_surface.*, recorded once its alphas
# became the C library's pow at numpy's linspace points instead of np.logspace,
# whose bits depend on numpy's vector loops (those of np.logspace without AVX-512).
GOLDEN = [
    ('feasibility --format csv', 0, {
        'feasibility_grid.csv': 'fd5c166c5007f92821c4971a83182bcea33745b624cfb65caba7ca9e167c0f42',
        'metadata.json': '3e78f9802614fdf3778f0e4695953cfd85a836a1b07c7be20a89c088bdef46b2',
        'reference_points.csv': '24fa026c075c44f0725168d683c6ffdf20e2beb611a802f19a5e9fa9e3a411e6',
    }),
    ('feasibility --format json', 0, {
        'feasibility_grid.json': 'f4999de30903bd2ce70c52aac59ed688fc273c50b60d0d53a48b3396342333b6',
        'metadata.json': '2916465072d773b28c3cb29576415aef82a8c693179c52e8faa4175dc62612bc',
        'reference_points.json': '8debd8c22ccae3149b0383a78a10e7b05f9a3867da663770b952f02ab2db57bf',
    }),
    ('bounds --format csv', 0, {
        'bounds.json': '159aedc7606d854aded5f8d8597a4747e0a1e584cf1181332743402510369ca1',
        'condition_surface.csv': '3c0423b7602deaa2d74872bdbe1a35196dc39188f90064ab7e3dcf494165c0a4',
        'metadata.json': 'a5f3f5e0139ac1456fda3c818c9a5a25521b7b98277b1e0e2319c3319d24ac59',
    }),
    ('bounds --format json', 0, {
        'bounds.json': '159aedc7606d854aded5f8d8597a4747e0a1e584cf1181332743402510369ca1',
        'condition_surface.json': 'a8371922980be87a5c384c132b03b504b36ec04083b2513b8d9626fb1390e302',
        'metadata.json': '4525a5d1af4dd33555ed96f0f1a4477a33fb566be714e39daf0b2d1c866ff790',
    }),
    ('sweep --format csv', 0, {
        'metadata.json': '080a5e6d8d1bad480f5cf3bdbb16f562a655d06c0879f0164a1af5c8368b1016',
        'resource_sweep.csv': '50f3f1356267a6c09f676c6f66aa34139ee54e298e6a7b5cb9651da848914175',
    }),
    ('sweep --format json', 0, {
        'metadata.json': '5b099ff7737f14b7839579b7a769b70ed20662542051c411e97b0ae4232fc2d4',
        'resource_sweep.json': 'b625bf7d3e3c4117a5da74c2de1e784178d728e054327b3ea0bbe41328f7e4d6',
    }),
    ('resources', 0, {
        'metadata.json': '269c74a13beb56318a52d1d339a446f271d6f62da4544a463995a2c4c7c334b5',
        'resources.json': '39650b53b6c22ab0e2312ae50866f75e3f215265e8748333807a3d3f168e49e4',
    }),
    ('rounds', 0, {
        'metadata.json': '196ace2c3088288da6fb64792bd4287ce656055d22e0e233e70841a4e78ba2dc',
        'rounds.json': 'd3bde7078984e49ffccae64c8272038579188903a4c6bacb79881dfbc79ffa47',
    }),
    ('simulate --sessions 2', 0, {
        'metadata.json': '9a97a91ee2a18b1a2ba7612c7e4f9b4868444029e61dbe2983e860e03bb9dc0c',
        'simulate.json': '7e1cbfe68c8d4f0fd39cb493cbf04f57ced0d420557a9661de988d39d49b3e3c',
    }),
    ('simulate --sessions 2 --trace', 0, {
        'honest_rounds.csv': '3fbe6ab1f0aac91cfe82519ed753e9da960f30e89890ef0d98ed69dee8bbb7e8',
        'honest_session.json': '4e73245626b860073cb3719e35db97a0c81ce0de8b56c789a633a2b969642321',
        'metadata.json': '990b788cf5c381bd66efdab68587e677e22ccc839fbc4a034ba2ca1688015117',
        'simulate.json': '7e1cbfe68c8d4f0fd39cb493cbf04f57ced0d420557a9661de988d39d49b3e3c',
    }),
    ('bounds --t 0.6', 2, {
        'bounds.json': '06131d029576ebb1b74b2a6e07e2eee73777438a9b9e20b51bac56969bca4f70',
        'metadata.json': '049321febe1d1a6c33113fc4fe37a2b169c7f038fe182df5b348d13c599258c8',
    }),
    ('bounds --eps 0.03 --t 0.8 --u 0.05 --format json', 0, {
        'bounds.json': '27797747fed5a1222d6a1280a6a280bcf0e11a226237a4f9b86b55d94b996834',
        'condition_surface.json': '0675d793d5548ec2a4de06a678620164fa1edde20d21be42d29b9a81786d9fee',
        'metadata.json': '160feb96d27eca9b9d4a4226ba49f10443d942ce529e56edc03e9494b34c2984',
    }),
    ('bounds --eps 0.03 --t 0.9 --u 0.12 --format json', 0, {
        'bounds.json': 'da7415d315df816dbea15127ff7aed741d476c8146fb2835df0d397b4920978c',
        'condition_surface.json': 'c4ba6c52ed16f3ee65c9d5bfda7e538b544a0b90ddd6c46c5cee301f61b3cbf3',
        'metadata.json': '000556c84fa9181e8142542365b188894300c28688d60361cdff5bb95b6b5334',
    }),
    ('bounds --eps 0.07 --t 0.95 --u 0.075 --format json', 0, {
        'bounds.json': '55ba066e831f3bb002e93be686294d2969a491b587b684664d13162790d107b3',
        'condition_surface.json': '3179c745f04648ef3a66ee1cf104bc9a833aaebfa9fa205c9fc4da09266e75e0',
        'metadata.json': 'e62f1e2b25f5163c61fa3bd53991f35125396fb34a9fff4f0812d3c2a754a41c',
    }),
]


@pytest.mark.parametrize("command,code,digests", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_out_files_pinned(tmp_path, command, code, digests):
    assert run(command.split() + ["--seed", "11", "--out", str(tmp_path)]) == code
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted(tmp_path.iterdir())}
    assert written == digests


# the calc_table grid golden and one bounds --out digest, in a fresh interpreter
HOST_CHECK = """
import contextlib, hashlib, io, json, pathlib, sys
from cvqpv.bounds import max_eps_tilde
from cvqpv.cli import main
points, out = json.loads(sys.argv[1]), pathlib.Path(sys.argv[2])
text = "\\n".join(repr(max_eps_tilde(*point)) for point in points)
with contextlib.redirect_stdout(io.StringIO()):
    main(["bounds", "--format", "csv", "--seed", "11", "--out", str(out)])
print(json.dumps([hashlib.sha256(text.encode()).hexdigest(),
                  hashlib.sha256((out / "condition_surface.csv").read_bytes()).hexdigest()]))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the disabled features are x86-64 ones")
def test_outputs_do_not_depend_on_numpy_simd_dispatch(tmp_path):
    # numpy's AVX-512 power loop rounds np.logspace differently from its other
    # loops; no optimum and no surface cell may depend on which one runs
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
           "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    proc = subprocess.run([sys.executable, "-c", HOST_CHECK, json.dumps(CALC_TABLE_GRID),
                           str(tmp_path)], env=env, capture_output=True, text=True, check=True)
    surface = next(d for c, _, d in GOLDEN if c == "bounds --format csv")["condition_surface.csv"]
    assert json.loads(proc.stdout) == [CALC_TABLE_DIGEST, surface]
