"""Property tests for the monotonicity and ordering facts the numerics rely on.

The bisections in cvqpv.bounds assume the separation term grows with
eps_tilde; q_max assumes the counting bound never falls as q grows; the
round planner assumes gamma falls as N grows; the cutoff argument assumes
the truncated state has less energy than the untruncated one. The
optimizer's grid searches assume the separation term is strictly
unimodal in alpha at every eps_tilde they run at, and its shared
bisection path must equal the per-alpha scalar bisections it replaced,
whose oracle lives in test_bounds; its first candidate, a closed-form
guess, must decide no output. Its grid must be numpy's linspace
points, bit for bit. The round trace CSV must give back the session's
columns exactly. The table writer, the condition surface, the bound above
which no alpha has a margin, and the round count must equal the reference
implementations kept here: csv.writer and json.dumps, the scalar double
loop over separation_rhs, a min over the grid's slopes, and one bisect_left
over [1, N_SEARCH_CAP). Examples are derandomized so
the suite gives the same verdict on every run.
"""

import bisect
import csv
import io
import json
import math
import struct
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqpv import bounds
from cvqpv.attack import (
    N_SEARCH_CAP,
    NoMarginError,
    RoundPlan,
    attacker_score_variance,
    delta_margin,
    rounds_required,
)
from cvqpv.bounds import (
    N_ALPHA,
    condition_surface,
    eps_cap,
    linspace,
    log_grid,
    max_eps_tilde,
    separation_rhs,
)
from cvqpv.cli import _write_table, write_rounds_csv
from cvqpv.channel import ChannelParams
from cvqpv.gaussian import cutoff_energy
from cvqpv.protocol import (
    HonestProver,
    ProtocolParams,
    gamma_threshold,
    run_session,
)
from cvqpv.resources import N_MAX, count_bound_log2
from test_bounds import CALC_TABLE_GRID, GRID_ALPHAS, scalar_eps_tilde

SETTINGS = settings(derandomize=True, deadline=None, max_examples=300)

energies = st.floats(min_value=1e-3, max_value=1e8)
alphas = st.floats(min_value=1e-6, max_value=0.5)
eps_tildes = st.floats(min_value=0.0, max_value=1.0 - 1e-12)


@SETTINGS
@given(E=energies, alpha=alphas, et1=eps_tildes, et2=eps_tildes)
def test_separation_rhs_increasing_in_eps_tilde(E, alpha, et1, et2):
    lo, hi = sorted((et1, et2))
    if hi - lo > 1e-9 * hi:
        assert separation_rhs(E, alpha, lo) < separation_rhs(E, alpha, hi)
    else:
        assert separation_rhs(E, alpha, lo) <= separation_rhs(E, alpha, hi)


def strictly_unimodal(values) -> bool:
    """True when values fall strictly and then rise strictly; either run may be empty."""
    j = values.index(min(values))
    return (all(x > y for x, y in zip(values[:j], values[1:j + 1]))
            and all(x < y for x, y in zip(values[j:], values[j + 1:])))


@pytest.mark.parametrize("values,unimodal", [
    ([3.0, 2.0, 1.0, 2.0], True), ([1.0, 2.0, 3.0], True), ([3.0, 2.0, 1.0], True), ([1.0], True),
    ([3.0, 2.0, 2.0, 3.0], False), ([3.0, 1.0, 1.0], False), ([1.0, 1.0, 2.0], False),
    ([2.0, 1.0, 2.0, 1.0], False), ([0.0, 0.0], False),
])
def test_strictly_unimodal_rejects_every_plateau(values, unimodal):
    assert strictly_unimodal(values) is unimodal


def searched_eps_tildes(eps, E, t, u):
    """The eps_tildes at which max_eps_tilde searches the grid, each with the start
    it searches from: each round's hi from its candidate, and lo (None)."""
    searched = []
    original = bounds._best_alpha
    with mock.patch.object(bounds, "_best_alpha", lambda E, et, start=None:
                           searched.append((et, start)) or original(E, et, start)):
        res = max_eps_tilde(eps, E, t, u)
    return searched + ([(res.eps_tilde_max, None)] if res.feasible else [])


def assert_unimodal_where_searched(eps, E, t, u):
    for et, start in searched_eps_tildes(eps, E, t, u):
        rhs = [separation_rhs(E, a, et) for a in GRID_ALPHAS]
        assert strictly_unimodal(rhs), (eps, E, t, u, et)
        # the least term and its index, whether the search starts cold, from the
        # optimizer's start, or galloping from either end of the grid
        for s in (None, start, 0, N_ALPHA - 1):
            assert bounds._best_alpha(E, et, s) == (rhs.index(min(rhs)), min(rhs))


@settings(SETTINGS, max_examples=200)
@given(eps=st.floats(min_value=0.0, max_value=0.28), E=st.floats(min_value=1e-6, max_value=1e300),
       t=st.floats(min_value=0.69, max_value=1.0), u=st.floats(min_value=0.0, max_value=0.1))
def test_separation_rhs_strictly_unimodal_where_searched(eps, E, t, u):
    # the grid searches (a first j whose term is no more than the next one's, and
    # the first alpha positive at lo) are exact only on a strictly unimodal term
    assert_unimodal_where_searched(eps, E, t, u)


def test_separation_rhs_strictly_unimodal_where_searched_on_calc_table_grid():
    for point in CALC_TABLE_GRID:
        assert_unimodal_where_searched(*point)


def test_best_alpha_takes_the_first_of_tied_terms():
    # every term is 0 at eps_tilde = 0; like np.argmin, the search takes the first
    # alpha, from any start
    for start in (None, 0, 1, 119, N_ALPHA - 2, N_ALPHA - 1):
        assert bounds._best_alpha(1e3, 0.0, start) == (0, 0.0)


FIRST_CANDIDATES = {
    "cold": lambda E, top: bounds._best_alpha(E, top)[0],  # the search the guess replaced
    "least": lambda E, top: 0,
    "greatest": lambda E, top: N_ALPHA - 1,
}


def assert_first_candidate_decides_nothing(eps, E, t, u):
    # an alpha ends above the candidate exactly when its margin at the candidate's hi is
    # positive, so the rounds reach the same optimum from any first candidate
    expected = repr(max_eps_tilde(eps, E, t, u))
    for name, guess in FIRST_CANDIDATES.items():
        with mock.patch.object(bounds, "_alpha_guess", guess):
            assert repr(max_eps_tilde(eps, E, t, u)) == expected, (name, eps, E, t, u)


@settings(SETTINGS, max_examples=200)
@given(eps=st.floats(min_value=0.0, max_value=0.28), E=st.floats(min_value=1e-6, max_value=1e300),
       t=st.floats(min_value=0.69, max_value=1.0), u=st.floats(min_value=0.0, max_value=0.1))
def test_first_candidate_decides_nothing(eps, E, t, u):
    assert_first_candidate_decides_nothing(eps, E, t, u)


def test_first_candidate_decides_nothing_on_calc_table_grid():
    for point in CALC_TABLE_GRID:
        assert_first_candidate_decides_nothing(*point)


def test_alpha_guess_within_one_step_of_cold_search_on_calc_table_grid():
    # not needed for the result, but what makes the guess cheap: round 1 then starts
    # where the cold search at top would have
    for eps, E, t, u in CALC_TABLE_GRID:
        if ChannelParams(t, u).feasible() and eps < eps_cap(t, u):
            top = bounds._no_margin_above(eps_cap(t, u) - eps, E)
            assert abs(bounds._alpha_guess(E, top) - bounds._best_alpha(E, top)[0]) <= 1


def no_margin_above_by_min(cap_margin, E):
    """Oracle: the bound from the least of the 240 slopes, by min over the grid."""
    log_energy = math.log2(E + 1.0)
    slope = min(((1.0 + a) / (1.0 - a) + 2.0 * a) * (log_energy + math.log2(math.e / a))
                for a in GRID_ALPHAS)
    return cap_margin / slope * (1.0 + 1e-6)


@settings(SETTINGS, max_examples=500)
@given(cap_margin=st.floats(min_value=1e-12, max_value=0.5),
       E=st.floats(min_value=1e-6, max_value=1e300))
def test_no_margin_above_takes_the_least_slope_on_the_grid(cap_margin, E):
    # the binary search finds the minimum of the 240 slopes, bit for bit
    assert bounds._no_margin_above(cap_margin, E) == no_margin_above_by_min(cap_margin, E)


@pytest.mark.parametrize("E", [10.0, 1e2, 1e3, 1e4])  # calc_table's energies
def test_no_margin_above_at_the_calc_table_energies(E):
    for cap_margin in (1e-7, eps_cap(0.8, 0.1) - 0.03, eps_cap(1.0, 0.0) - 0.1, eps_cap(1.0, 0.0)):
        assert bounds._no_margin_above(cap_margin, E) == no_margin_above_by_min(cap_margin, E)


def rounds_by_one_bisection(eps, u, eps_hon):
    """Oracle: the round count as a check at the cap and one bisect_left over
    [1, N_SEARCH_CAP), with rounds_required's exact test; a plan or the error's text."""
    try:
        if not (0.0 < eps_hon < 1.0):
            raise ValueError("eps_hon must lie in (0,1)")
        if not delta_margin(eps, u, 1.0) > 0.0:
            raise NoMarginError(
                f"parameters give no margin: asymptotic Delta <= 0 for eps={eps}, u={u}")
        score_variance = attacker_score_variance(eps, u)
        target = Fraction(score_variance) / Fraction(eps_hon)

        def ok(N):
            d = delta_margin(eps, u, gamma_threshold(N, eps_hon))
            return d > 0.0 and N * Fraction(d) ** 2 >= target

        if not ok(N_SEARCH_CAP):
            raise NoMarginError(f"no N <= {N_SEARCH_CAP} satisfies the margin condition")
        N = 1 + bisect.bisect_left(range(1, N_SEARCH_CAP), True, key=ok)
        gamma = gamma_threshold(N, eps_hon)
        return RoundPlan(N, gamma, delta_margin(eps, u, gamma), score_variance)
    except ValueError as e:
        return f"{type(e).__name__}: {e}"


@settings(SETTINGS, max_examples=1000)
@given(u=st.floats(min_value=0.0, max_value=0.3) | st.floats(min_value=0.0, max_value=1e3),
       excess=st.floats(min_value=-0.5, max_value=3.0) | st.floats(min_value=0.0, max_value=1500.0),
       eps_hon=st.floats(min_value=1e-9, max_value=0.999999)
       | st.floats(min_value=5e-324, max_value=1.0, exclude_min=True, exclude_max=True))
def test_rounds_required_equals_one_bisection(u, excess, eps_hon):
    # the guess and the gallops only choose where the exact test is asked; eps is
    # drawn relative to 2 ln(1 + 2u), where the asymptotic margin turns positive
    eps = max(0.0, 2.0 * math.log1p(2.0 * u) + excess)
    try:
        plan = rounds_required(eps, u, eps_hon)
    except ValueError as e:
        plan = f"{type(e).__name__}: {e}"
    assert plan == rounds_by_one_bisection(eps, u, eps_hon)


@SETTINGS
@given(start=st.floats(min_value=-1e6, max_value=1e6), stop=st.floats(min_value=-1e6, max_value=1e6),
       num=st.integers(1, 400))
def test_linspace_equals_numpy_bit_for_bit(start, stop, num):
    assert [x.hex() for x in linspace(start, stop, num)] == \
        [x.hex() for x in np.linspace(start, stop, num).tolist()]


@settings(SETTINGS, max_examples=50)  # the oracle makes about 7,000 scalar calls an example
@given(eps=st.floats(min_value=0.0, max_value=0.2), E=st.floats(min_value=1e-6, max_value=1e300),
       t=st.floats(min_value=0.69, max_value=1.0), u=st.floats(min_value=0.0, max_value=0.1))
def test_max_eps_tilde_is_first_argmax_of_scalar_bisections(eps, E, t, u):
    scalar = [scalar_eps_tilde(eps, E, t, u, a) for a in GRID_ALPHAS]
    best = max(scalar)
    res = max_eps_tilde(eps, E, t, u)
    assert res.feasible == (best > 0.0)
    assert res.eps_tilde_max == best
    if res.feasible:
        assert res.alpha_star == GRID_ALPHAS[scalar.index(best)]
        assert res.rhs_at_opt == separation_rhs(E, res.alpha_star, best)
    else:
        assert math.isnan(res.alpha_star) and math.isnan(res.rhs_at_opt)


@SETTINGS
@given(n=st.integers(1, N_MAX), m0=st.integers(1, 700), q=st.integers(0, 700),
       et=st.floats(min_value=1e-12, max_value=0.999))
def test_count_bound_nondecreasing_in_q(n, m0, q, et):
    assert count_bound_log2(n, m0, q, et) <= count_bound_log2(n, m0, q + 1, et)


@SETTINGS
@given(N1=st.integers(1, 10**9), N2=st.integers(1, 10**9),
       eps_hon=st.floats(min_value=1e-300, max_value=0.99))
def test_gamma_threshold_decreasing_in_N(N1, N2, eps_hon):
    lo, hi = sorted((N1, N2))
    if lo < hi:
        assert gamma_threshold(hi, eps_hon) < gamma_threshold(lo, eps_hon)


@SETTINGS
@given(m0=st.integers(1, 2000), sigma=st.floats(min_value=1e-3, max_value=1e6))
def test_cutoff_energy_below_sigma_sq(m0, sigma):
    energy = cutoff_energy(m0, sigma)
    assert 0.0 < energy <= sigma**2
    # strictly below wherever the deficit 2^m0 rho^(2^m0) / (1 - rho^(2^m0))
    # is at least two ulps of sigma^2, using its lower bound 2^m0 rho^(2^m0)
    rho = sigma**2 / (sigma**2 + 1.0)
    scale = 2.0**m0 if m0 < 1024 else math.inf
    log2_deficit_lower = m0 + scale * math.log2(rho)
    if log2_deficit_lower >= math.log2(2.0 * math.ulp(sigma**2)):
        assert energy < sigma**2


@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), N=st.integers(1, 300),
       t=st.floats(min_value=0.0, max_value=1.0), u=st.floats(min_value=0.0, max_value=0.3))
def test_trace_csv_gives_back_the_columns(seed, N, t, u):
    ch = ChannelParams(t, u)
    params = ProtocolParams(sigma=10.0, n=8, N=N, eps_hon=0.01)
    res = run_session(params, ch, HonestProver(ch), seed, trace=True)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rounds.csv"
        write_rounds_csv(res.records, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    assert rows[0] == ["index", "theta", "r", "r_prime", "score_term"]
    assert [int(row[0]) for row in rows[1:]] == list(range(N))
    parsed = np.array([[float(field) for field in row[1:]] for row in rows[1:]])
    basis, *columns = res.records
    assert [row[1] for row in rows[1:]] == [repr(b * (math.pi / 2.0)) for b in basis.tolist()]
    for j, col in enumerate(columns, start=1):
        assert parsed[:, j].tobytes() == col.tobytes()  # bit for bit
    _theta, r, r_prime, term = parsed.T
    assert ((r_prime - math.sqrt(t) * r) ** 2 / (0.5 + u) == term).all()


# csv.writer quotes a field holding one of these, so the table writer rejects them
plain_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=',"\r\n'))
cells = st.one_of(plain_text, st.just(""), st.integers(), st.integers(-(2**80), 2**80))
table_rows = st.lists(cells, max_size=5).filter(lambda row: row != [""])  # [""] is quoted


@settings(SETTINGS, max_examples=150)
@given(header=table_rows, rows=st.lists(table_rows, max_size=8))
def test_write_table_matches_csv_and_json_modules(header, rows):
    sink = io.StringIO()
    writer = csv.writer(sink, lineterminator="\r\n")
    writer.writerow(header)
    writer.writerows(rows)
    payload = {"schema": "cvqpv.table/1", "columns": header, "rows": rows}
    with tempfile.TemporaryDirectory() as tmp:
        _write_table(Path(tmp), "t", header, rows, "csv")
        _write_table(Path(tmp), "t", header, rows, "json")
        with open(Path(tmp) / "t.csv", newline="") as fh:
            assert fh.read() == sink.getvalue()
        assert (Path(tmp) / "t.json").read_text() == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("cell", [0.5, True, None, np.int64(3), np.float64(0.5), b"x"])
def test_write_table_rejects_other_cell_types(fmt, cell):
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(ValueError, match="only str and int cells"):
            _write_table(Path(tmp), "t", ["a", "b"], [["1", cell]], fmt)


@pytest.mark.parametrize("row", [["a,b"], ['say "x"'], ["two\nlines"], ["cr\r"], [""]])
def test_write_table_rejects_fields_csv_would_quote(row):
    with tempfile.TemporaryDirectory() as tmp:
        with pytest.raises(ValueError, match="CSV quoting"):
            _write_table(Path(tmp), "t", ["a"], [row], "csv")
        assert not (Path(tmp) / "t.csv").exists()


def scalar_condition_surface(E, t, u, alphas, eps_tildes):
    """The double loop condition_surface replaced: one separation_rhs call per cell."""
    grid = np.empty((len(alphas), len(eps_tildes)))
    for i, a in enumerate(alphas):
        for j, et in enumerate(eps_tildes):
            grid[i, j] = eps_cap(t, u) - separation_rhs(E, a, et)
    return grid


def surface_bytes(rows) -> bytes:
    """The rows' float64 bits, in order."""
    cells = [cell for row in rows for cell in row]
    return struct.pack(f"<{len(cells)}d", *cells)


@SETTINGS
@given(E=energies, t=st.floats(min_value=1e-3, max_value=1.0),
       u=st.floats(min_value=0.0, max_value=0.3),
       grid_alphas=st.lists(alphas, min_size=1, max_size=6),
       grid_ets=st.lists(st.one_of(st.just(0.0), eps_tildes), min_size=1, max_size=6))
def test_condition_surface_matches_scalar_loop(E, t, u, grid_alphas, grid_ets):
    # eps_tilde up to 1 - 1e-12 puts many cells at x = (1+a)/(1-a) et >= 1/2
    expected = scalar_condition_surface(E, t, u, grid_alphas, grid_ets)
    got = condition_surface(E, t, u, grid_alphas, grid_ets)
    assert [len(row) for row in got] == [len(grid_ets)] * len(grid_alphas)
    assert surface_bytes(got) == expected.astype("<f8").tobytes()  # bit for bit


def test_condition_surface_matches_scalar_loop_on_the_cli_grid():
    # the 80 x 80 grid of `cvqpv bounds` at its defaults
    alphas_cli = log_grid(1e-4, 0.5, 80)
    ets_cli = linspace(1e-5, 4.0 * max_eps_tilde(0.1, 1e3, 1.0, 0.0).eps_tilde_max, 80)
    expected = scalar_condition_surface(1e3, 1.0, 0.0, alphas_cli, ets_cli)
    assert surface_bytes(condition_surface(1e3, 1.0, 0.0, alphas_cli, ets_cli)) == \
        expected.astype("<f8").tobytes()
