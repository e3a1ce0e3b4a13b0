"""CLI contract: every subcommand, fed extreme flag values, ends in a structured outcome.

Each example calls cvqpv.cli.main in-process with --out and asserts:

* the exit code is 0, 1 or 2, and no exception leaves main();
* exit 1 leaves no --out directory, and stderr starts with "error:";
* no warning is issued (the CLI would print it to stderr);
* every JSON file written parses with a parse_constant that raises.

Each flag is left out, drawn from its own range with its extremes (0,
subnormals, 1e-300, 1e300, the largest float; 2^63, 2^64 and 10^30 for
ints), or, one time in ten, from any float or int, negative and non-finite
included. Only the sizes that scale work are capped:

* rounds <= 10^4. rounds = 0 derives N from the plan, and an untraced
  session costs one chi-square draw whatever N is; --trace is drawn only
  with an explicit rounds >= 1, since a traced session stores N rows;
* sessions <= 4;
* u_steps, t_steps <= 100;
* sweep ranges at most 11 values wide in n and in m0.

Examples are derandomized, so the suite gives the same verdict on every run.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvqpv.cli import main

MAX = 1.7976931348623157e308


def floats_in(extremes, lo, hi):
    return st.one_of(st.sampled_from(extremes), st.floats(lo, hi))


UNIT = [5e-324, 2.2e-308, 1e-300, 1e-15, 0.5, 1.0 - 2.0**-53]  # inside (0, 1)
# each flag's own range, extremes included, so that most examples get past validation
FLOAT_FLAGS = {
    "eps": floats_in([0.0, 5e-324, 1e-300, 0.1, 1e300, MAX], 0.0, 10.0),
    "energy": floats_in([5e-324, 1e-300, 1.0, 1e300, MAX], 0.0, 1e9),
    "t": floats_in([0.0, *UNIT, 1.0], 0.0, 1.0),
    "u": floats_in([0.0, 5e-324, 1e-300, 0.05, 1e300, MAX], 0.0, 10.0),
    "sigma": floats_in([5e-324, 1e-300, 10.0, 1e300, MAX], 1e-3, 1e6),
    "eps-tilde": floats_in(UNIT, 0.0, 1.0),
    "eps-hon": floats_in(UNIT, 0.0, 1.0),
}
ANY_FLOAT = st.one_of(st.sampled_from([0.0, -0.0, -5e-324, -1e-300, -1e300, -MAX,
                                       float("inf"), float("-inf"), float("nan")]),
                      st.floats())
INT_FLAGS = {"n": st.integers(1, 63), "m0": st.integers(1, 2000),
             "seed": st.one_of(st.sampled_from([0, 2**32, 2**63, 2**64 - 1, 10**30]),
                               st.integers(0, 10**6))}
ANY_INT = st.one_of(st.sampled_from([-(2**63), -1, 0, 2**31, 2**64, 10**30]),
                    st.integers(-10, 10**6))


def pick(draw, own, anything):
    """None (flag left out) 3 times in 10, the flag's own range 6, anything 1."""
    kind = draw(st.sampled_from(["own"] * 6 + ["omit"] * 3 + ["any"]))
    return None if kind == "omit" else draw(own if kind == "own" else anything)


@st.composite
def argvs(draw, command):
    argv = [command]
    # --flag=value keeps argparse from reading a value such as -1e+300 as an option
    for flag, own in FLOAT_FLAGS.items():
        value = pick(draw, own, ANY_FLOAT)
        if value is not None:
            argv.append(f"--{flag}={value!r}")
    for flag, own in INT_FLAGS.items():
        value = pick(draw, own, ANY_INT)
        if value is not None:
            argv.append(f"--{flag}={value}")
    rounds = pick(draw, st.integers(0, 10**4), st.integers(-5, 10**4))
    if rounds is not None:
        argv.append(f"--rounds={rounds}")
    sessions = pick(draw, st.integers(1, 4), st.integers(-3, 4))
    if sessions is not None:
        argv.append(f"--sessions={sessions}")
    for flag, choices in [("eps-unit", ["nats", "bits"]), ("format", ["csv", "json"])]:
        value = pick(draw, st.sampled_from(choices), st.sampled_from(choices))
        if value is not None:
            argv.append(f"--{flag}={value}")
    if command == "feasibility":
        for flag in ["u-steps", "t-steps"]:
            value = pick(draw, st.integers(1, 100), st.integers(-3, 100))
            if value is not None:
                argv.append(f"--{flag}={value}")
    if command == "sweep":
        for name, lowest, highest in [("n", -3, 45), ("m0", -3, 1100)]:
            lo = draw(st.integers(lowest, highest))
            argv += [f"--{name}-lo={lo}", f"--{name}-hi={lo + draw(st.integers(-3, 10))}"]
    if command == "simulate" and rounds is not None and rounds >= 1 and draw(st.booleans()):
        argv.append("--trace")
    return argv


def strict_json(path):
    def reject(name):
        raise ValueError(f"{path.name}: non-standard JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=reject)


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
            for path in out.glob("*.json"):
                strict_json(path)


@pytest.mark.parametrize("command", ["feasibility", "bounds", "resources", "rounds",
                                     "simulate", "sweep"])
def test_every_outcome_is_structured(command):
    @settings(derandomize=True, deadline=None, max_examples=100, database=None)
    @given(argv=argvs(command))
    def check(argv):
        check_contract(argv)

    check()
