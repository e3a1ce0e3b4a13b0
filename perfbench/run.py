"""Benchmark for the cvqpv package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc_plan --seed 1 --seconds 15 --trace 0

Each workload runs in this one process as a closed loop: one call at a
time, each waiting for the last, no threads and no worker processes. The
set-up time is measured by starting a fresh interpreter several times in a
row (one at a time), each importing ``cvqpv.cli`` from ``src/`` and building
the workload's inputs. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` measures them untraced, then again with spans around every
layer boundary, and reports the per-layer metrics, the tracing overhead
(traced minus untraced) and the share of operation time no span covers.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines before it
name every metric with its unit and sample count. See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import workloads
from tracer import Patcher, Tracer, install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
TAIL_BEYOND = 10  # a tail percentile keeps at least this many samples above it
PASS_TAIL_MIN_OPS = 100  # passes at least this long get a tail each; the median is reported
REFERENCE_REACH_NS = 20_000_000  # see Loop.local_reference

END_TO_END = {  # name -> unit; every workload reports all of them
    "setup_s": "s",
    "peak_rss_mb": "MB",
    # times in units of one reference-kernel duration ("ref") of the same run
    "work_rate_rel": "work/ref",
    "latency_p50_rel": "ref",
    "latency_tail_rel": "ref",
}

PER_LAYER = {  # name -> unit; per pass means the mean over the traced passes
    "protocol.run_session.calls": "count/pass",
    "protocol.run_session.self_s": "s/pass",
    "protocol.round_ns": "ns",
    "protocol.rounds": "count/pass",
    "protocol.normals_drawn": "count/pass",
    "protocol.bytes_computed": "B/session",
    "protocol.respond.self_s": "s/pass",
    "protocol.session_seeds.self_s": "s/pass",
    "protocol.acceptance_rate.self_s": "s/pass",
    "protocol.run_session_traced.self_s": "s/pass",
    "protocol.write_rounds_csv.self_s": "s/pass",
    "protocol.write_rounds_csv.bytes": "B/pass",
    "protocol.write_session_json.self_s": "s/pass",
    "bounds.max_eps_tilde.calls": "count/pass",
    "bounds.max_eps_tilde.self_s": "s/pass",
    "bounds.separation_rhs.calls": "count/pass",
    "bounds.separation_rhs.per_solve": "count/solve",
    "bounds.condition_surface.self_s": "s/pass",
    "bounds.alpha_gap_max": "abs",
    "gaussian.h_tilde.calls": "count/pass",
    "gaussian.h_tilde.self_s": "s/pass",
    "gaussian.cutoff_purified_distance.self_s": "s/pass",
    "attack.rounds_required.calls": "count/pass",
    "attack.rounds_required.self_s": "s/pass",
    "attack.delta_margin.calls": "count/pass",
    "resources.resource_report.self_s": "s/pass",
    "resources.q_max.self_s": "s/pass",
    "resources.count_bound_log2.calls": "count/pass",
    "resources.count_bound_log2.per_q_max": "count/q_max",
    "channel.feasible.calls": "count/pass",
    "channel.regime_flags.calls": "count/pass",
    "channel.self_s": "s/pass",
    "cli.main.calls": "count/pass",
    "cli.main.self_s": "s/pass",
    "cli.resolve_config.self_s": "s/pass",
    "cli.feasibility.self_s": "s/pass",
    "cli.bounds.self_s": "s/pass",
    "cli.resources.self_s": "s/pass",
    "cli.rounds.self_s": "s/pass",
    "cli.simulate.self_s": "s/pass",
    "cli.sweep.self_s": "s/pass",
    "cli.files_written": "count/pass",
    "cli.bytes_written": "B/pass",
    "cli.exit_nonzero": "count/pass",
    "calc.infeasible_share": "ratio",
    "trace.spans": "count/pass",
    "trace.uncovered_share": "ratio",
    "trace.overhead_share": "ratio",
    "trace.overhead.work_per_s": "1/s",
    "trace.overhead.latency_ms_p50": "ms",
    "trace.overhead.latency_ms_tail": "ms",
    "mem.session_bytes_over_l2": "ratio",
}

#: float64 arrays one round-level session computes: r, sqrt(t) r, noise,
#: r', r' - sqrt(t) r and the score terms (numpy temporaries, computed).
SESSION_ARRAYS = 6


def load_package() -> SimpleNamespace:
    """Import cvqpv from this checkout's src/, or stop with a nonzero exit."""
    if not (SRC / "cvqpv" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no cvqpv package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import cvqpv
    import cvqpv.cli
    if Path(cvqpv.__file__).resolve().parent != (SRC / "cvqpv").resolve():
        raise SystemExit(f"perfbench: imported cvqpv from {cvqpv.__file__}, not {SRC}")
    from cvqpv import attack, bounds, channel, cli, gaussian, protocol, resources
    return SimpleNamespace(attack=attack, bounds=bounds, channel=channel, cli=cli,
                           gaussian=gaussian, protocol=protocol, resources=resources)


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter to its inputs being built."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    samples = []
    for _ in range(SETUP_PROBES):
        # perf_counter is CLOCK_MONOTONIC, shared by parent and child
        start = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.split()[-1]) - start)
    return samples


def tail_of(values) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Loop:
    """Timings and outcomes of one closed loop over whole passes."""

    def __init__(self, first_pass: int):
        self.first_pass = first_pass
        self.passes = 0
        self.latency_ms: list[float] = []
        self.op_ns: list[int] = []
        self.op_start: list[int] = []
        self.op_pass: list[int] = []  # pass index within this loop
        self.op_label: list = []
        self.failed_ops: dict[int, list[str]] = {}
        self.work = 0.0
        # reference-kernel samples: one before the first operation, then one after each
        self.reference_ms: list[float] = []
        self.reference_at: list[int] = []

    def reference(self) -> float:
        """Median duration (ms) of the reference kernel during this loop."""
        return statistics.median(self.reference_ms)

    def local_reference(self) -> np.ndarray:
        """Per operation, the mean reference duration around it.

        The window reaches one operation length (at least REFERENCE_REACH_NS)
        before and after the operation, and always holds the samples taken
        just before and just after it. A long operation is thereby compared
        with the machine speed over a span like its own, a short one with
        the speed of the moment.
        """
        at = np.asarray(self.reference_at)
        csum = np.concatenate([[0.0], np.cumsum(self.reference_ms)])
        start = np.asarray(self.op_start)
        end = start + np.asarray(self.op_ns)
        reach = np.maximum(end - start, REFERENCE_REACH_NS)
        index = np.arange(len(start))
        lo = np.minimum(np.searchsorted(at, start - reach), index)
        hi = np.maximum(np.searchsorted(at, end + reach, side="right"), index + 2)
        return (csum[hi] - csum[lo]) / (hi - lo)

    @property
    def ops(self) -> int:
        return len(self.op_ns)

    def work_per_s(self) -> float:
        return self.work / (sum(self.op_ns) / 1e9)

    def per_pass_tail(self) -> bool:
        return self.ops >= PASS_TAIL_MIN_OPS * self.passes

    def tail(self, values=None) -> tuple[float, float]:
        """Tail of the latencies (or of ``values``, one per operation).

        When every pass holds enough operations, each pass gets its own tail
        and the median over passes is returned, which keeps a burst of noise
        in one pass from setting the run's tail.
        """
        values = np.asarray(self.latency_ms if values is None else values)
        if not self.per_pass_tail():
            return tail_of(values.tolist())
        op_pass = np.asarray(self.op_pass)
        tails = [tail_of(values[op_pass == p].tolist()) for p in range(self.passes)]
        return statistics.median(t[0] for t in tails), min(t[1] for t in tails)


def run_loop(wl, first_pass: int, seconds: float, min_passes: int, tracer=None) -> Loop:
    loop = Loop(first_pass)
    now = time.perf_counter_ns
    deadline = time.perf_counter() + seconds

    def reference():
        r0 = now()
        wl.reference()
        r1 = now()
        loop.reference_ms.append((r1 - r0) / 1e6)
        loop.reference_at.append((r0 + r1) // 2)

    reference()
    while loop.passes < min_passes or time.perf_counter() < deadline:
        k = first_pass + loop.passes
        for label, fn in wl.pass_ops(k):
            op = loop.ops
            if tracer is not None:
                tracer.current_op = op
            t0 = now()
            try:
                result, error = fn(), None
            except Exception as exc:  # a failed operation is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1 = now()
            if tracer is not None:
                tracer.current_op = -1
            reference()
            if error is None:
                work, divisor, problems = wl.inspect(label, result, k)
            else:
                work, divisor, problems = 0.0, 1, [error]
            loop.op_ns.append(t1 - t0)
            loop.op_start.append(t0)
            loop.latency_ms.append((t1 - t0) / divisor / 1e6)
            loop.op_pass.append(loop.passes)
            loop.op_label.append(label)
            loop.work += work
            if problems:
                loop.failed_ops[op] = problems
        wl.end_pass(k)
        loop.passes += 1
    return loop


def end_to_end(loop: Loop) -> dict:
    tail, _ = loop.tail()
    return {"work_per_s": loop.work_per_s(),
            "latency_ms_p50": statistics.median(loop.latency_ms),
            "latency_ms_tail": tail}


def relative(loop: Loop) -> dict:
    """End-to-end times restated in durations of the nearby reference samples."""
    ref = loop.local_reference()
    op_ref = np.asarray(loop.op_ns) / 1e6 / ref
    latency = np.asarray(loop.latency_ms) / ref
    return {"work_rate_rel": loop.work / float(op_ref.sum()),
            "latency_p50_rel": float(np.median(latency)),
            "latency_tail_rel": loop.tail(latency)[0]}


def cache_sizes() -> dict:
    """Unified/data cache sizes by level, read from sysfs (bytes)."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
        sizes[level] = int(text.rstrip("KM")) * scale
    return sizes


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_file = ROOT / ".git" / name
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def env_record(cv) -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = cache_sizes()
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "l2_bytes": caches.get(2, 0),
        "l3_bytes": caches.get(3, 0),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "cvqpv": sys.modules["cvqpv"].__version__,
        "git_commit": git_commit(),
    }


def summarize_trace(tracer: Tracer, loop: Loop, wl) -> tuple[dict, list[str]]:
    """Per-layer metrics (means over traced passes) and exact-count problems."""
    name, parent, op, dur = tracer.arrays()
    names = tracer.names
    K, P = max(len(names), 1), loop.passes
    has_parent = parent >= 0
    child_ns = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(name))
    self_ns = dur - child_ns
    key = np.asarray(loop.op_pass, dtype=np.int64)[op] * K + name
    calls = np.bincount(key, minlength=P * K).reshape(P, K)
    selfs = np.bincount(key, weights=self_ns, minlength=P * K).reshape(P, K) / 1e9
    parent_name = np.full(len(name), -1, dtype=np.int64)
    parent_name[has_parent] = name[parent[has_parent]]

    def nid(span):
        return names.index(span) if span in names else -1

    def calls_of(span):
        i = nid(span)
        return float(calls[:, i].mean()) if i >= 0 else 0.0

    def self_of(*spans):
        return sum(float(selfs[:, nid(s)].mean()) for s in spans if nid(s) >= 0)

    def calls_under(child, parent_span):
        c, p = nid(child), nid(parent_span)
        if c < 0 or p < 0:
            return 0.0
        return float(((name == c) & (parent_name == p)).sum()) / P

    counters = {}
    for cname, items in tracer.counters.items():
        totals = counters[cname] = np.zeros(P)
        for op_id, amount in items:
            totals[loop.op_pass[op_id]] += amount
    tallies = {}
    for i in range(P):
        for tname, value in wl.pass_tally(loop.first_pass + i).items():
            tallies.setdefault(tname, np.zeros(P))[i] = value

    problems = []
    exact = np.hstack([calls] + [v[:, None] for v in (*counters.values(), *tallies.values())])
    if P > 1 and not (exact == exact[0]).all():
        problems.append("exact per-pass counts differ between traced passes")

    per_pass = {key: float(v.mean()) for key, v in (*counters.items(), *tallies.items())}
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    for key in PER_LAYER:
        span, _, kind = key.rpartition(".")
        if kind == "calls":
            metrics[key] = calls_of(span)
        elif kind == "self_s":
            metrics[key] = self_of(span)
        elif key in per_pass:
            metrics[key] = per_pass[key]
    solves = metrics["bounds.max_eps_tilde.calls"]
    if solves:
        metrics["bounds.separation_rhs.per_solve"] = (
            calls_under("bounds.separation_rhs", "bounds.max_eps_tilde") / solves)
    scans = calls_of("resources.q_max")
    if scans:
        metrics["resources.count_bound_log2.per_q_max"] = (
            calls_under("resources.count_bound_log2", "resources.q_max") / scans)
    plain_rounds = per_pass.get("protocol.rounds.untraced", 0.0)
    if plain_rounds:  # self time per round of untraced sessions
        metrics["protocol.round_ns"] = metrics["protocol.run_session.self_s"] * 1e9 / plain_rounds
    metrics["channel.self_s"] = self_of("channel.feasible", "channel.regime_flags")
    metrics["trace.spans"] = len(name) / P
    wall = float(sum(loop.op_ns))
    metrics["trace.uncovered_share"] = (wall - float(dur[~has_parent].sum())) / wall
    return metrics, problems


def fmt_line(name, value, unit, note="") -> str:
    return f"metric {name} = {value:.6g} {unit}" + (f" ({note})" if note else "")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="cvqpv benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small problem sizes, for the benchmark's self-tests")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    cv = load_package()
    Workload = workloads.WORKLOADS[args.workload]
    scratch = SCRATCH / f"run-{os.getpid()}"
    if args.probe_setup:
        Workload(cv, args.seed, args.tiny, scratch)
        print(repr(time.perf_counter()))
        return 0

    setup = measure_setup(args)
    scratch.mkdir(parents=True, exist_ok=True)
    patcher = Patcher()
    traced = trace_metrics = None
    run_problems: list[str] = []
    try:
        wl = Workload(cv, args.seed, args.tiny, scratch)
        wl.install_checks(patcher)
        warm = run_loop(wl, 0, 0.0, 1)
        # a traced run splits its time between the untraced and the traced loop
        share = args.seconds / 2 if args.trace else args.seconds
        plain = run_loop(wl, 1, share, wl.min_passes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if args.trace:
            tracer, tpatch = Tracer(), Patcher()
            install(tracer, tpatch, cv)
            try:
                traced = run_loop(wl, 1 + plain.passes, share, wl.traced_min_passes, tracer)
            finally:
                tpatch.restore()
            trace_metrics, trace_problems = summarize_trace(tracer, traced, wl)
            run_problems += trace_problems
            del tracer
        post_problems, post_lines = wl.finish()
    finally:
        patcher.restore()
        shutil.rmtree(scratch, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    loops = [loop for loop in (warm, plain, traced) if loop is not None]
    attempted = sum(loop.ops for loop in loops)
    failures = []
    failed = 0
    for loop in loops:
        for i, label in enumerate(loop.op_label):
            problems = loop.failed_ops.get(i, []) + post_problems.get(label, [])
            if problems:
                failed += 1
                failures += problems
    seen = {label for loop in loops for label in loop.op_label}
    for label, problems in post_problems.items():
        if label not in seen:  # a check that no operation carries fails the run
            failures += problems
            run_problems += problems
    correct = failed == 0 and not run_problems

    env = env_record(cv)
    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}{' tiny' if args.tiny else ''}")
    print("env " + json.dumps(env, sort_keys=True))
    session_bytes = SESSION_ARRAYS * 8 * getattr(wl, "N", 0)  # 0 where no sessions run
    if session_bytes:
        print(f"computed session working set: {SESSION_ARRAYS} float64 arrays x N="
              f"{wl.N} = {session_bytes / 1e6:.2f} MB, L2 per core {env['l2_bytes'] / 2**20:g} MiB "
              f"(ratio {session_bytes / env['l2_bytes']:.2f}), L3 {env['l3_bytes'] / 2**20:g} MiB")
    for line in post_lines:
        print(line)
    for problem in dict.fromkeys(failures + run_problems):
        print(f"FAIL {problem}")

    e2e = end_to_end(plain)
    work_name, work_unit, lat_name = Workload.report_names
    n = plain.ops
    _, pct = plain.tail()
    tail_note = f"p{pct:.2f}, {TAIL_BEYOND} beyond" + (
        f" within each of {plain.passes} passes, median" if plain.per_pass_tail() else "")
    # cli latencies are per main() call ("batch"), in seconds as the issue names them
    scale, unit = (1e-3, "s") if lat_name == "cli_batch" else (1.0, "ms")
    print(fmt_line("setup_s", statistics.median(setup), "s", f"median of n={len(setup)} spawns"))
    print(fmt_line("peak_rss_mb", peak_rss_mb, "MB", "n=1 process"))
    print(fmt_line(work_name, e2e["work_per_s"], f"{work_unit}/s", f"n={n} ops"))
    print(fmt_line(f"{lat_name}_{unit}_p50", e2e["latency_ms_p50"] * scale, unit, f"n={n}"))
    print(fmt_line(f"{lat_name}_{unit}_tail", e2e["latency_ms_tail"] * scale, unit,
                   f"{tail_note}, n={n}"))
    print(fmt_line("fail_frac", failed / attempted, "1", f"failed={failed}, attempted={attempted}"))
    print(fmt_line("reference_kernel_ms", plain.reference(), "ms",
                   f"median of n={len(plain.reference_ms)}, timed between operations"))

    if args.trace:
        metrics = dict(trace_metrics)
        metrics.update(wl.extras)
        t_e2e = end_to_end(traced)
        for key in ("work_per_s", "latency_ms_p50", "latency_ms_tail"):
            metrics[f"trace.overhead.{key}"] = t_e2e[key] - e2e[key]
        per_pass = (sum(traced.op_ns) / traced.passes) / (sum(plain.op_ns) / plain.passes)
        metrics["trace.overhead_share"] = per_pass - 1.0
        metrics["protocol.bytes_computed"] = float(session_bytes)
        metrics["mem.session_bytes_over_l2"] = (
            session_bytes / env["l2_bytes"] if env["l2_bytes"] else 0.0)
        units = PER_LAYER
        print(f"traced passes: {traced.passes}, untraced passes: {plain.passes}")
    else:
        metrics = {"setup_s": statistics.median(setup), "peak_rss_mb": peak_rss_mb,
                   **relative(plain)}
        units = END_TO_END
    for key in units:
        print(fmt_line(key, metrics[key], units[key]))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
