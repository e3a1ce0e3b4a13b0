"""The three benchmark workloads.

Each workload builds its inputs from the seed, yields the operations of one
pass, inspects every result outside the timed region, and runs the checks
that need the package or scipy after the timed loops have ended (so they
add no spans to a traced run). A pass is the unit whose exact counts must
repeat: every pass of a run issues the same kind and number of calls.

Operations are closed-loop: one call at a time, each waiting for the last.

Each workload also has a reference kernel: a few milliseconds of fixed work
of the same kind (numpy streaming, Python float arithmetic, CSV text
formatting) that calls nothing in cvqpv. The runner times it between
operations, so end-to-end times can be stated relative to the speed the
machine had during the same run; on a shared host that speed drifts by tens
of percent over minutes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import shutil
from pathlib import Path

import numpy as np

import checks

EPS_HON = 0.01
SIGMA = 10.0
TINY_ROUNDS = 2000


class Workload:
    """What the runner calls; subclasses also define ``name``, ``report_names``
    (raw throughput name, its work unit, latency name stem), ``min_passes``,
    ``reference()``, ``pass_ops(k)`` yielding (label, operation) and
    ``inspect(label, result, k)`` returning (work, latency divisor, problems)."""

    extras: dict = {}  # per-layer metrics the workload sets in finish()
    traced_min_passes = 2  # spans of every traced pass stay in memory until the run ends

    def install_checks(self, patcher) -> None:
        pass

    def end_pass(self, k: int) -> None:
        pass

    def pass_tally(self, k: int) -> dict:
        """Counts a pass records outside any span (exact, like span counts)."""
        return {}

    def finish(self) -> tuple[dict, list[str]]:
        """Checks run after the timed loops: (problems by label, report lines)."""
        return {}, []


class MonteCarloPlan(Workload):
    """acceptance_rate batches for both responders at the default plan."""

    name = "mc_plan"
    labels = ("honest", "attacker")
    report_names = ("mc_rounds_per_s", "rounds", "mc_session")
    min_passes = 2
    batch = 8  # sessions per acceptance_rate call

    def __init__(self, cv, seed: int, tiny: bool, scratch: Path):
        self.cv, self.seed, self.tiny = cv, seed, tiny
        self.eps = 0.1
        self.ch = cv.channel.ChannelParams(1.0, 0.0)
        N = TINY_ROUNDS if tiny else cv.attack.rounds_required(self.eps, self.ch.u, EPS_HON).N
        self.params = cv.protocol.ProtocolParams(sigma=SIGMA, n=30, N=N, eps_hon=EPS_HON)
        self.responders = {
            "honest": cv.protocol.HonestProver(self.ch),
            "attacker": cv.attack.make_pessimistic_attacker(self.eps, self.ch),
        }
        self.expected_gamma = cv.protocol.gamma_threshold(N, EPS_HON)
        self.accepted = dict.fromkeys(self.labels, 0)
        self.sessions = dict.fromkeys(self.labels, 0)
        self._session_problems: list[str] = []

    @property
    def N(self) -> int:
        return self.params.N

    def master_seed(self, k: int, j: int) -> int:
        return int(np.random.SeedSequence([self.seed, k, j]).generate_state(1)[0])

    def reference(self):
        """Two N-length normal draws and a session-sized score reduction."""
        rng = np.random.default_rng(12345)
        r = rng.normal(0.0, SIGMA, self.N)
        noise = rng.normal(0.0, 0.7, self.N)
        return float((((r + noise) - r) ** 2 / 0.5).mean())

    def install_checks(self, patcher) -> None:
        """Check every session acceptance_rate runs: gamma and a finite score."""
        def make(run_session):
            def checked(*args, **kwargs):
                result = run_session(*args, **kwargs)
                self._session_problems += checks.check_session(
                    result.gamma, result.mean_score, self.expected_gamma)
                return result
            return checked
        patcher.replace(self.cv.protocol, "run_session", make)

    def pass_ops(self, k: int):
        protocol = self.cv.protocol
        for j, label in enumerate(self.labels):
            responder, seed = self.responders[label], self.master_seed(k, j)
            yield label, lambda: protocol.acceptance_rate(
                self.params, self.ch, responder, self.batch, seed)

    def inspect(self, label: str, rate, k: int):
        problems, self._session_problems = self._session_problems, []
        accepted = rate * self.batch
        if not (math.isfinite(accepted) and accepted == round(accepted)
                and 0 <= accepted <= self.batch):
            problems.append(f"{label}: acceptance rate {rate!r} is not k/{self.batch}")
        else:
            self.accepted[label] += int(accepted)
            self.sessions[label] += self.batch
        return self.batch * self.N, self.batch, problems

    def finish(self):
        problems, lines = {}, []
        if not self.tiny and self.N != checks.DEFAULT_PLAN_N:
            problems["honest"] = [f"rounds_required N={self.N} != {checks.DEFAULT_PLAN_N}"]
        for label in self.labels:
            v = self.responders[label].noise_var
            p = checks.exact_acceptance(self.N, self.expected_gamma, self.ch.u, v)
            n, a = self.sessions[label], self.accepted[label]
            lo, hi = checks.binomial_region(n, p)
            problems.setdefault(label, []).extend(checks.check_acceptance(label, a, n, p))
            lines.append(f"check {label}: accepted {a}/{n} sessions, exact p={p:.6g}, "
                         f"binomial region [{lo}, {hi}] at alpha={checks.BINOMIAL_ALPHA:g}")
        return problems, lines


def _calc_grid():
    grid = list(itertools.product((0.03, 0.05, 0.07, 0.1), (0.8, 0.85, 0.9, 0.95, 1.0),
                                  (0.0, 0.05, 0.1), (10.0, 1e2, 1e3, 1e4)))
    return grid + [(eps, t, u, 1e3) for (eps, t, u) in checks.PUBLISHED]


class CalcTable(Workload):
    """Security calculator over a fixed channel grid, in a seeded order."""

    name = "calc_table"
    report_names = ("calc_points_per_s", "points", "calc_point")
    min_passes = 5  # the tail is the median of per-pass tails
    n, m0 = 30, 5

    def __init__(self, cv, seed: int, tiny: bool, scratch: Path):
        self.cv = cv
        points = _calc_grid()
        if tiny:  # one infeasible and one plain grid point, then the published points
            points = [(0.1, 0.8, 0.1, 10.0), (0.05, 0.9, 0.0, 1e2)] + points[-4:]
        self.points = points
        self.published = set(range(len(points) - 4, len(points)))
        self.order = [int(i) for i in np.random.default_rng(seed).permutation(len(points))]
        self.results: dict[int, tuple] = {}

    def _solve(self, point):
        eps, t, u, E = point
        cv = self.cv
        res = cv.bounds.max_eps_tilde(eps, E, t, u)
        if not res.feasible:
            return res, None, None
        try:
            plan = cv.attack.rounds_required(eps, u, EPS_HON)
        except cv.attack.NoMarginError:
            plan = None  # the expected structured outcome, not a failure
        report = cv.resources.resource_report(self.n, self.m0, res.eps_tilde_max, sigma=SIGMA)
        return res, plan, report

    def reference(self):
        """Binary-entropy arithmetic in a Python loop, like the optimizer's."""
        total = 0.0
        for i in range(1, 8000):
            x = i / 16000.0
            total += -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)
        return total

    def pass_ops(self, k: int):
        order = self.order[:8] if k == 0 else self.order
        for i in order:
            point = self.points[i]
            yield i, lambda: self._solve(point)

    def inspect(self, label: int, result, k: int):
        res, plan, report = result
        key = (res.feasible, res.eps_tilde_max, res.alpha_star if res.feasible else None,
               plan.N if plan else None, plan.gamma if plan else None,
               report.q_max if report else None, report.corollary_q if report else None)
        problems = []
        if res.feasible:
            finite = [res.eps_tilde_max, res.alpha_star, res.rhs_at_opt]
            if plan:
                finite += [plan.gamma, plan.delta]
            if report:
                finite += [report.k_factor_real, report.cutoff_error_log2]
            if not all(math.isfinite(x) for x in finite):
                problems.append(f"{self.points[label]}: non-finite result {key}")
        elif res.eps_tilde_max != 0.0:
            problems.append(f"{self.points[label]}: infeasible but eps_tilde={res.eps_tilde_max}")
        first = self.results.setdefault(label, key)
        if first != key:
            problems.append(f"{self.points[label]}: result changed between passes")
        return 1, 1, problems

    def finish(self):
        cv, problems, lines, gaps = self.cv, {}, [], []
        infeasible = 0
        for label, (feasible, et, alpha, N, _g, q, cq) in sorted(self.results.items()):
            point = self.points[label]
            eps, t, u, E = point
            found = []
            if not feasible:
                infeasible += 1
                continue
            found += checks.check_optimum(cv.bounds.condition_holds, cv.bounds.BoundInputs,
                                          point, alpha, et)
            found += checks.check_budget(point, q, cq)
            if (eps, u) == (0.1, 0.0) and N != checks.DEFAULT_PLAN_N:
                found.append(f"{point}: rounds_required N={N} != {checks.DEFAULT_PLAN_N}")
            if label in self.published:
                found += checks.check_published(point, et)
                ref_alpha = checks.PUBLISHED[(eps, t, u)][0]
                gaps.append(abs(alpha - ref_alpha))
                lines.append(f"report alpha gap at {point}: alpha*={alpha:.6g}, published "
                             f"{ref_alpha}, |gap|={abs(alpha - ref_alpha):.4g} (not gated)")
            if found:
                problems[label] = found
        share = infeasible / len(self.results) if self.results else math.nan
        lines.append(f"report infeasible points: {infeasible}/{len(self.results)} = {share:.4f}")
        self.extras = {"calc.infeasible_share": share, "bounds.alpha_gap_max": max(gaps, default=0.0)}
        return problems, lines


CLI_CALLS = [
    ["feasibility", "--format", "csv"],
    ["feasibility", "--format", "json"],
    ["bounds", "--format", "csv"],
    ["bounds", "--format", "json"],
    ["sweep", "--format", "csv"],
    ["sweep", "--format", "json"],
    ["resources"],
    ["rounds"],
    ["simulate", "--sessions", "2"],
    ["simulate", "--sessions", "2", "--trace"],
    ["bounds", "--t", "0.6"],  # infeasible channel: structured exit 2
]
EXPECTED_EXIT = {len(CLI_CALLS) - 1: 2}
TRACE_CALL = CLI_CALLS.index(["simulate", "--sessions", "2", "--trace"])


class CliOutputs(Workload):
    """Every subcommand through cvqpv.cli.main in-process, each with --out."""

    name = "cli_outputs"
    report_names = ("cli_mb_written_per_s", "MB", "cli_batch")
    min_passes = traced_min_passes = 20  # the tail then sits inside the simulate --trace calls
    trace_sample = 64

    def __init__(self, cv, seed: int, tiny: bool, scratch: Path):
        self.cv = cv
        self.base = scratch / "cli"
        self.calls = [argv + ["--seed", str(seed)] for argv in CLI_CALLS]
        if tiny:
            for argv in self.calls:
                if argv[0] == "simulate":
                    argv += ["--rounds", str(TINY_ROUNDS)]
        self.N = TINY_ROUNDS if tiny else checks.DEFAULT_PLAN_N
        self.sample = sorted(int(i) for i in np.random.default_rng(seed).choice(
            self.N, self.trace_sample, replace=False))
        self.digests: dict[int, dict] = {}
        self.tally: dict[int, dict] = {}

    def reference(self):
        """repr-formatted float rows through csv.writer, like the trace writer."""
        rows = np.random.default_rng(12345).normal(size=(300, 3)).tolist()
        sink = io.StringIO()
        writer = csv.writer(sink, lineterminator="\r\n")
        for i, (a, b, c) in enumerate(rows):
            writer.writerow([i, repr(a), repr(b), repr(c)])
        return len(sink.getvalue())

    def _main(self, argv):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.cv.cli.main(argv)

    def pass_ops(self, k: int):
        for i, argv in enumerate(self.calls):
            out = self.base / f"p{k}" / f"c{i}"
            full = argv + ["--out", str(out)]
            yield i, lambda: (self._main(full), out)

    def inspect(self, label: int, result, k: int):
        rc, out = result
        problems = []
        if rc != EXPECTED_EXIT.get(label, 0):
            problems.append(f"{self.calls[label]}: exit {rc}, expected {EXPECTED_EXIT.get(label, 0)}")
        files = sorted(out.iterdir()) if out.is_dir() else []
        if not files:
            return 0, 1, problems + [f"{self.calls[label]}: wrote no files"]
        written = sum(p.stat().st_size for p in files)
        tally = self.tally.setdefault(k, dict.fromkeys(
            ("cli.files_written", "cli.bytes_written", "cli.exit_nonzero"), 0))
        tally["cli.files_written"] += len(files)
        tally["cli.bytes_written"] += written
        tally["cli.exit_nonzero"] += rc != 0
        digests = checks.file_digests(out)
        if label not in self.digests:
            # first pass: parse everything, check the trace against its rows
            self.digests[label] = digests
            for p in files:
                problems += checks.check_parses(p)
            if label == TRACE_CALL:
                problems += checks.check_trace_csv(out / "honest_rounds.csv", self.N,
                                                   1.0, 0.0, self.sample)
        else:
            problems += checks.check_digests(self.digests[label], digests)
        return written / 1e6, 1, problems

    def pass_tally(self, k: int) -> dict:
        return self.tally.get(k, {})

    def end_pass(self, k: int) -> None:
        shutil.rmtree(self.base / f"p{k}", ignore_errors=True)


WORKLOADS = {w.name: w for w in (MonteCarloPlan, CalcTable, CliOutputs)}
