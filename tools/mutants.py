"""Run a fixed list of one-line mutants through tier-1 and record which the tests kill.

Run from anywhere in a checkout:

    python3 tools/mutants.py    # writes MUTANTS.json in the repo root

Each entry of MUTANTS below names a file, a text that occurs exactly once in
it, the text that replaces it, and the result expected of tier-1: "killed"
(some test fails) or "equivalent" (every test passes, for the reason given).
The list is reviewed by hand; a change that adds a test for a surviving
mutant changes that entry to "killed" in the same change.

For each entry the tool copies the working tree (without .git and caches)
into a temporary directory, applies that one mutant, and runs tier-1 there
with ``-x``: ``python -m pytest -q -x --continue-on-collection-errors`` with
``PYTHONPATH=src``, leaving out tests/test_mutants.py, which checks this
list against the unmutated tree. Runs go one at a time, never in parallel.
An unmutated copy runs first; if it fails, no mutant is judged. A mutant is
killed when pytest exits 1 (a test failed or a module failed to import) and
survives when it exits 0; any other exit is recorded as an error.

MUTANTS.json holds every entry with its observed result, the test that
failed, pytest's last line and the seconds it took, next to the commit and
``src_sha256``, the digest of the ``src/`` files it mutated
(record_bench.tree_digest). The tool exits 1 when
an observed result differs from the expected one.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from record_bench import ROOT, git, tree_digest

# tests/test_mutants.py checks that each old text occurs once, so every mutant fails it
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py"]
TIMEOUT_S = 900
COPY_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache",
                                     "BENCH_*.json", "PAIRS_*.json", "MUTANTS.json")


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    expected: str  # "killed" or "equivalent"
    reason: str  # why the tests must see it, or why no output can


MUTANTS = [
    Mutant("bisect-tol", "src/cvqpv/bounds.py",
           "BISECT_TOL = 1e-8", "BISECT_TOL = 1e-7", "killed",
           "criterion 1 compares eps_tilde with the published table to within the 1e-8 width"),
    Mutant("gamma-log-term-halved", "src/cvqpv/protocol.py",
           "+ 2.0 / N * log_term", "+ 1.0 / N * log_term", "killed",
           "the default plan's N and gamma are pinned by the rounds CLI line"),
    Mutant("half-clamp", "src/cvqpv/gaussian.py",
           "if x >= 0.5:", "if x >= 0.4999:", "killed",
           "htilde is the binary entropy below x = 1/2, under 1.0, and exactly 1.0 from there "
           "up; the test near 1/2 pins it"),
    Mutant("repeat-skipped", "src/cvqpv/bounds.py",
           "if not rhs < cap_margin:", "if True:", "killed",
           "the first candidate is accepted unchecked; at 188 of the 192 feasible calc_table "
           "points it ends below the optimum, which the golden and the scalar oracle pin"),
    Mutant("alpha-star-candidate", "src/cvqpv/bounds.py",
           "alpha_star = _ALPHAS[first]", "alpha_star = _ALPHAS[k]", "killed",
           "the candidate is often not the first alpha tied at the optimum (at PUBLISHED[0] "
           "it is 0.00486, not 0.00469); the optimum's alpha is pinned"),
    Mutant("best-alpha-strict", "src/cvqpv/bounds.py",
           "term(j) <= term(j + 1)", "term(j) < term(j + 1)", "killed",
           "it moves the grid search only where two adjacent terms tie, which the unimodality "
           "property tests find at no eps_tilde the optimizer searches; the tie rule's own test "
           "(every term is 0 at eps_tilde = 0, and the first alpha is taken) sees it"),
    Mutant("alpha-guess-ignored", "src/cvqpv/bounds.py",
           "return min(max(j, 0), N_ALPHA - 1)", "return N_ALPHA // 2", "killed",
           "every first candidate gives the same result, so only the search path sees it: the "
           "default point's guess (118) and the guess's distance from the cold search's "
           "choice on the calc_table grid are pinned"),
    Mutant("chebyshev-in-floats", "src/cvqpv/attack.py",
           "return N * d_num * d_num * scale >= target * d_den * d_den",
           "return N * d * d >= score_variance / eps_hon", "killed",
           "rounded, the test lands one round off at large eps; the exact rule is pinned"),
    Mutant("chebyshev-exact-strict", "src/cvqpv/attack.py",
           "* scale >= target *", "* scale > target *", "killed",
           "an exact tie, N Delta^2 = var / eps_hon as rationals, is pinned to pass"),
    Mutant("chebyshev-margin-guard", "src/cvqpv/attack.py",
           "if d <= 0.0:", "if False:", "killed",
           "below Delta = 0, N Delta^2 grows again as Delta falls, so N = 1 passes at eps_hon = "
           "1/2 with Delta = -3; once a probe fails, the binary search stays above N/2, where "
           "no such N passes, but the test is no longer monotone, and a scan up from N = 1 in "
           "its place is pinned"),
    Mutant("chebyshev-cap-check", "src/cvqpv/attack.py",
           'raise NoMarginError(f"no N <= {N_SEARCH_CAP} satisfies the margin condition")',
           "pass", "killed",
           "where no N up to the cap passes, the search returns its sentinel, N = "
           "N_SEARCH_CAP + 1, as the plan; such an input is pinned to raise NoMarginError"),
    Mutant("chebyshev-sentinel-at-cap", "src/cvqpv/attack.py",
           "N_SEARCH_CAP, guess - 1)", "N_SEARCH_CAP - 1, guess - 1)", "killed",
           "the sentinel becomes N = N_SEARCH_CAP, taken to pass unasked, so an input where "
           "no N up to the cap passes gets a plan at the cap; it is pinned to raise"),
    Mutant("bisect-round-two-from-top", "src/cvqpv/bounds.py",
           "lo, hi = _bisect(E, _ALPHAS[k], cap_margin, top, hi, rhs)",
           "lo, hi = _bisect(E, _ALPHAS[k], cap_margin, top, top, rhs)", "killed",
           "round 2 takes every midpoint up to top as positive and ends above the optimum; "
           "the optimizer golden pins it"),
    Mutant("bisect-no-negative-skip", "src/cvqpv/bounds.py",
           "elif mid >= neg:", "elif False:", "killed",
           "the walk then evaluates midpoints above top or at or above a point a probe found "
           "non-positive: the same result with more calls, which the pinned call counts of "
           "each round see"),
    Mutant("first-gallop-up-skips", "src/cvqpv/bounds.py",
           "lo = start + step + 1", "lo = start + step + 2", "killed",
           "the gallop up steps over the first j it has not asked, so the grid search misses "
           "an answer just past a probe; searches from the grid's first alpha are pinned"),
    Mutant("no-eps-tilde-infeasible", "src/cvqpv/bounds.py",
           "if lo == 0.0:", "if False:", "killed",
           "just below the cap the margin is positive at eps_tilde = 0 and at no midpoint; "
           "that point is pinned infeasible, in the library and in the bounds CLI"),
    Mutant("einf-not-decided", "src/cvqpv/bounds.py",
           "cap_margin <= 0.0 or E == math.inf:", "cap_margin <= 0.0:", "killed",
           "E = inf makes top 0, where the guess's closed form divides by zero; the extreme-"
           "input test pins E = inf to the infeasible result"),
    Mutant("gamma-n-unchecked", "src/cvqpv/protocol.py",
           "if N < 1:", "if False:", "killed",
           "gamma_threshold is the one check of N, ProtocolParams' included; N = 0 then "
           "divides by zero, and both are pinned to raise 'N must be >= 1'"),
    Mutant("phi-series-switch", "src/cvqpv/gaussian.py",
           "if y >= 0.1:", "if y >= 0.5:", "equivalent",
           "moves phi by at most 4.1e-11, the series' first omitted term at y = 0.5: "
           "inside criterion 7's 1e-10, and no tier-1 tolerance or digest resolves it"),
    Mutant("q-max-strict", "src/cvqpv/resources.py",
           "k_factor) < threshold:", "k_factor) <= threshold:", "equivalent",
           "it changes only the upward step's test, and only where the counting bound equals "
           "-2^n exactly in floats, which is not expected"),
    Mutant("q-max-no-step-down", "src/cvqpv/resources.py",
           "while q >= 0 and _count_bound_log2(n, m0, q, k_factor) >= threshold:",
           "while False:", "killed",
           "the closed-form guess is exact wherever it was tried, so only a guess set too high "
           "reaches the downward step; those tests compare q_max with the old scan"),
    Mutant("accepted-strict", "src/cvqpv/protocol.py",
           "accepted=mean_score < gamma,", "accepted=mean_score <= gamma,", "equivalent",
           "a session score exactly equal to gamma has probability zero"),
    Mutant("csv-chunk-rows", "src/cvqpv/cli.py",
           "_CSV_CHUNK_ROWS = 8192", "_CSV_CHUNK_ROWS = 8191", "equivalent",
           "the trace's bytes do not depend on how many rows each write holds"),
    Mutant("plain-floats-from-1e-5", "src/cvqpv/cli.py",
           "_PLAIN_LO, _PLAIN_HI = 1e-4, 1e16", "_PLAIN_LO, _PLAIN_HI = 1e-5, 1e16", "killed",
           "orjson writes 9.999999999999999e-05 as 0.00009999999999999999; the switch-point "
           "test compares the floats either side of 1e-4 with the repr oracle"),
    Mutant("plain-floats-below-1e17", "src/cvqpv/cli.py",
           "_PLAIN_LO, _PLAIN_HI = 1e-4, 1e16", "_PLAIN_LO, _PLAIN_HI = 1e-4, 1e17", "killed",
           "orjson writes 1e16 as 1e16, repr as 1e+16; the switch-point test compares them"),
    Mutant("row-fallback-all", "src/cvqpv/cli.py",
           ".any(axis=1)", ".all(axis=1)", "killed",
           "a row is then rewritten from repr only when all three of its floats lie outside "
           "orjson's repr range; a row with one such float keeps orjson's text, which the "
           "one-odd-float tests compare with the repr oracle"),
    Mutant("parity-two-bits", "src/cvqpv/protocol.py",
           "np.bitwise_count(z) & 1", "np.bitwise_count(z) & 3", "killed",
           "the basis bit then takes values 2 and 3; the parity oracle and the balance tests "
           "see them, and the trace digests pin theta"),
    Mutant("table-quote-scan-skipped", "src/cvqpv/cli.py",
           "if fmt == \"csv\" and ('\"' in text", "if False and ('\"' in text", "killed",
           "a field csv.writer would quote is then written bare; the quoting tests expect "
           "ValueError and no file"),
    Mutant("failed-trace-kept", "src/cvqpv/cli.py",
           "os.unlink(path)", "pass", "killed",
           "a write that fails leaves a partial honest_rounds.csv; the failure tests list the "
           "directory"),
]


def apply(text: str, mutant: Mutant) -> str:
    """text with the mutant's one occurrence of old replaced; ValueError unless exactly one."""
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {text.count(mutant.old)} "
                         f"times in {mutant.file}, not once")
    return text.replace(mutant.old, mutant.new)


def tier1(mutant: Mutant | None) -> dict:
    """Tier-1 on a temporary copy of the working tree, with the mutant applied."""
    with tempfile.TemporaryDirectory(prefix="cvqpv-mutant-") as tmp:
        tree = Path(tmp, "repo")
        shutil.copytree(ROOT, tree, ignore=COPY_IGNORE)
        if mutant is not None:
            path = tree / mutant.file
            path.write_text(apply(path.read_text(), mutant))
        start = time.perf_counter()
        try:
            proc = subprocess.run(TIER1, cwd=tree, env={**os.environ, "PYTHONPATH": "src"},
                                  capture_output=True, text=True, timeout=TIMEOUT_S)
            code, out = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            code, out = None, f"timed out after {TIMEOUT_S} s"
        seconds = time.perf_counter() - start
    observed = {0: "survived", 1: "killed"}.get(code, "error")
    lines = out.strip().splitlines()
    return {"observed": observed, "exit_code": code, "seconds": round(seconds, 1),
            "failed": [line.split(" - ")[0][len("FAILED "):] for line in lines
                       if line.startswith("FAILED ")],
            "summary": lines[-1] if lines else ""}


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    print("baseline ...", file=sys.stderr)
    baseline = tier1(None)
    if baseline["observed"] != "survived":
        print(f"the unmutated tree fails tier-1: {baseline['summary']}", file=sys.stderr)
        return 1
    results = []
    for mutant in MUTANTS:
        print(f"{mutant.name} ...", file=sys.stderr)
        result = {**asdict(mutant), **tier1(mutant)}
        result["as_expected"] = result["observed"] == (
            "killed" if mutant.expected == "killed" else "survived")
        results.append(result)
        print(f"  {result['observed']} ({result['summary']})", file=sys.stderr)

    unexpected = [r["name"] for r in results if not r["as_expected"]]
    dirty = git("status", "--porcelain", "--", "src", "tests", "tools")
    record = {
        "schema": "cvqpv.mutants/1",
        "commit": git("rev-parse", "HEAD") + ("-dirty" if dirty else ""),
        "src_sha256": tree_digest(ROOT / "src"),
        "command": ["python", *TIER1[1:]],
        "baseline": baseline,
        "mutants": results,
        "unexpected": unexpected,
    }
    path = ROOT / "MUTANTS.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"unexpected: {unexpected or 'none'}; wrote {path}", file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
