"""CLI contract: every subcommand, fed extreme flag values, ends in a structured outcome.

Each example calls cvqpv.cli.main in-process with --out and asserts:

* the exit code is 0, 1 or 2, and no exception leaves main();
* exit 1 leaves no --out directory, and stderr starts with "error:";
* no warning is issued (the CLI would print it to stderr);
* every JSON file written parses with a parse_constant that raises;
* on exit 0 and 2, every number on stdout and in every result file is
  finite, and a JSON null stands for no value, never for a non-finite one.
  The only exceptions are the named saturations in SATURATED, where the
  file holds null and stdout prints -inf.

Each flag the subcommand takes is left out, drawn from its domain
(cvqpv.cli.PARAMS, Param.domain) with the domain's extremes
(its bounds, subnormals, 1e-300, 1e300, the largest float; 2^63, 2^64 - 1
and 10^30 for ints), or, one time in ten, from any float or int, negative
and non-finite included.
Only the sizes that scale work are capped:

* rounds <= 10^4. rounds = 0 derives N from the plan, and an untraced
  session costs one chi-square draw whatever N is; the trace key is drawn
  apart from the others, as a bare --trace and only with an explicit
  rounds >= 1, since a traced session stores N rows;
* sessions <= 4;
* u_steps, t_steps <= 100;
* sweep ranges at most 11 values wide in n and in m0.

Examples are derandomized, so the suite gives the same verdict on every run.
"""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqpv.cli import COMMANDS, PARAMS, Interval, main

MAX = 1.7976931348623157e308
FLOAT_EXTREMES = [0.0, 5e-324, 2.2e-308, 1e-300, 1e-15, 0.1, 0.5, 1.0 - 2.0**-53, 1.0, 10.0,
                  1e300, MAX]
INT_EXTREMES = [0, 1, 2, 63, 64, 2**31, 2**63, 2**64 - 1, 10**30]
ANY_FLOAT = st.one_of(st.sampled_from([0.0, -0.0, -5e-324, -1e-300, -1e300, -MAX,
                                       float("inf"), float("-inf"), float("nan")]),
                      st.floats())
ANY_INT = st.one_of(st.sampled_from([-(2**63), -1, 0, 2**31, 2**64, 10**30]),
                    st.integers(-10, 10**6))
CAPS = {"rounds": 10**4, "sessions": 4, "u_steps": 100, "t_steps": 100}
SWEEP_RANGES = [("n_lo", "n_hi"), ("m0_lo", "m0_hi")]
# JSON key -> its stdout line, for the results that are -inf by definition
SATURATED = {
    "eps_cap": "eps cap (1/2)log2(4t/(e(1+2u))) = -inf",  # at t = 0, or where 4t/(e(1+2u)) underflows
    "cutoff_error_log2": "cutoff error scale log2(lambda^(2^m0)) = -inf",  # 2^m0 log2 lambda
}
# null where there is no number to give, not a saturated one
NO_VALUE = {"corollary_q",  # outside the closed-form regime
            "log2_count_bound_at_qmax"}  # no budget: q_max = -1
NON_FINITE = re.compile(r"(?<![\w.])[-+]?(?:inf|nan|infinity)(?![\w])", re.IGNORECASE)


def own(p):
    """The key's domain, extremes sampled more often, capped where it scales work."""
    d = p.domain
    if not isinstance(d, Interval):
        return st.sampled_from(d)
    hi = min(d.hi, CAPS.get(p.name, math.inf))
    if p.type is float:
        extremes = [x for x in FLOAT_EXTREMES if x in d]
        return st.one_of(st.sampled_from(extremes), st.floats(
            d.lo, None if hi == math.inf else hi, exclude_min=d.open_lo, exclude_max=d.open_hi))
    extremes = [x for x in INT_EXTREMES if x in d and x <= hi]
    top = hi - 1 if d.open_hi else hi
    return st.one_of(st.sampled_from(extremes),
                     st.integers(d.lo, None if top == math.inf else top))


def anything(p):
    if p.name in CAPS:
        return st.integers(-5, CAPS[p.name])
    return {float: ANY_FLOAT, int: ANY_INT, str: st.sampled_from(p.domain)}[p.type]


def pick(draw, p, omit=True):
    """None (flag left out) 3 times in 10, the key's domain 6, anything 1."""
    kind = draw(st.sampled_from(["own"] * 6 + ["omit" if omit else "own"] * 3 + ["any"]))
    return None if kind == "omit" else draw(own(p) if kind == "own" else anything(p))


@st.composite
def argvs(draw, command):
    argv = [command]
    apart = {"trace", *(key for pair in SWEEP_RANGES for key in pair)}  # drawn below
    values = {}
    for p in PARAMS.values():
        if command in p.commands.split() and p.name not in apart:
            values[p.name] = pick(draw, p)
    if command == "sweep":  # each range given explicitly, at most 11 values wide
        for lo, hi in SWEEP_RANGES:
            values[lo] = pick(draw, PARAMS[lo], omit=False)
            values[hi] = values[lo] + draw(st.integers(-3, 10))
    # --flag=value keeps argparse from reading a value such as -1e+300 as an option
    argv += [f"{PARAMS[key].flag}={value if type(value) is str else repr(value)}"
             for key, value in values.items() if value is not None]
    rounds = values.get("rounds")
    if command == "simulate" and rounds is not None and rounds >= 1 and draw(st.booleans()):
        argv.append("--trace")
    return argv


def strict_json(path):
    def reject(name):
        raise ValueError(f"{path.name}: non-standard JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def nulls(value, key=None):
    """The keys of the nulls in a parsed JSON value."""
    if isinstance(value, dict):
        return [k for item_key, item in value.items() for k in nulls(item, item_key)]
    if isinstance(value, list):
        return [k for item in value for k in nulls(item, key)]
    return [key] if value is None else []


def non_finite(text):
    """The inf and nan tokens in text; the substring test first keeps large files cheap."""
    lower = text.lower()
    return NON_FINITE.findall(text) if "inf" in lower or "nan" in lower else []


def check_finite(argv, stdout, out):
    """Every number printed or written is finite, but for the SATURATED results."""
    printed = [line for line in stdout.splitlines() if line not in SATURATED.values()]
    assert not non_finite("\n".join(printed)), (argv, stdout)
    for path in out.iterdir():
        if path.suffix == ".json":
            bad = set(nulls(strict_json(path))) - SATURATED.keys() - NO_VALUE
            assert not bad, (argv, path.name, bad)
        else:
            assert not non_finite(path.read_text()), (argv, path.name)


def check_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "new" / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--out", str(out)])
        assert code in (0, 1, 2), argv
        # outside pytest a warning is printed to stderr, ahead of any "error:" line
        assert not caught, (argv, [str(w.message) for w in caught])
        if code == 1:
            assert not (Path(tmp) / "new").exists(), argv
            assert stderr.getvalue().startswith("error:"), (argv, stderr.getvalue())
        else:
            assert stderr.getvalue() == "", argv
            check_finite(argv, stdout.getvalue(), out)


@pytest.mark.parametrize("command", list(COMMANDS))
def test_every_outcome_is_structured(command):
    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(argv=argvs(command))
    def check(argv):
        check_contract(argv)

    check()
