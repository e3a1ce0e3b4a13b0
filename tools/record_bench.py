"""Record one point of the performance trajectory as BENCH_<label>.json.

Run from anywhere in a checkout:

    python3 tools/record_bench.py 10                # writes BENCH_10.json in the repo root
    python3 tools/record_bench.py 5 --src 3be8c94   # measures that commit's src/

It runs perfbench's three workloads one after another with ``--trace 0``
(each for 15 s, at seed 11), then each once more with ``--trace 1`` (5 s)
for the per-layer metrics, then times every CLI subcommand at its defaults
as a fresh process, importing ``cvqpv`` from ``src/``, 5 times one after
another, and reports the median and the quartiles. A bare interpreter start
is timed the same way as the floor those times sit on.

It always measures a temporary directory holding a copy of this checkout's
``perfbench/`` and a ``src/``: by default a copy of the working tree's, with
``--src COMMIT`` the output of ``git archive COMMIT src``, so today's
benchmark runs against an older tree. The directory is removed afterwards.
Both cases run from the same kind of location because the location alone
moves ``setup_s``: on the same code, a run from the checkout itself read it
about 10% lower than a run from a temporary directory. The ``commit`` field
names the measured tree: COMMIT's full hash, or HEAD's with ``-dirty``
appended when ``src/`` or ``perfbench/`` differ from HEAD. So a record made
before its change is committed names the parent; ``src_sha256``, a digest
of the measured ``src/`` files (tree_digest), names the code itself and
can be matched to a commit afterwards. perfbench's own ``env.git_commit``
reads the directory it runs in, which is no git checkout.

The file is a report: nothing here compares it with an earlier one or
fails on a slow number. It holds each workload's JSON result line, under
``workloads`` for the end-to-end run and under ``per_layer`` for the traced
run (whose metrics include perfbench's tracing overhead,
``trace.overhead_share``), the environment record perfbench prints and the
fresh-process times.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ["mc_plan", "calc_table", "cli_outputs"]
SUBCOMMANDS = ["feasibility", "bounds", "resources", "rounds", "simulate", "sweep"]
SEED, SECONDS, TRACED_SECONDS, REPEATS = 11, 15, 5, 5


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def tree_digest(src: Path) -> str:
    """sha256 over the files under src, each by its relative path and its bytes.

    __pycache__ directories are left out, so a copy of a working tree and the
    output of ``git archive COMMIT src`` give the same digest for the same files.
    """
    files = sorted((path.relative_to(src).as_posix(), path) for path in src.rglob("*")
                   if path.is_file() and "__pycache__" not in path.parts)
    digest = hashlib.sha256()
    for name, path in files:
        digest.update(name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


@contextlib.contextmanager
def measured_tree(commit: str | None):
    """A temporary directory holding the src/ and perfbench/ to measure, and the commit it is.

    COMMIT's src/ comes from ``git archive``; with no COMMIT, src/ is copied
    from the working tree. perfbench/ is always this checkout's.
    """
    ignore = shutil.ignore_patterns("__pycache__")
    with tempfile.TemporaryDirectory(prefix="cvqpv-bench-") as tmp:
        if commit is None:
            dirty = git("status", "--porcelain", "--", "src", "perfbench")
            name = git("rev-parse", "HEAD") + ("-dirty" if dirty else "")
            shutil.copytree(ROOT / "src", Path(tmp, "src"), ignore=ignore)
        else:
            name = git("rev-parse", "--verify", f"{commit}^{{commit}}")
            archive = subprocess.run(["git", "archive", "--format=tar", name, "src"], cwd=ROOT,
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        shutil.copytree(ROOT / "perfbench", Path(tmp, "perfbench"), ignore=ignore)
        yield Path(tmp), name


def run_workload(root: Path, name: str, trace: int, seconds: float,
                 seed: int = SEED) -> tuple[dict, dict]:
    """perfbench's JSON result line and its environment record for one workload."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[len("env "):]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def wall_times(root: Path, argv: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    runs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=root, stdout=subprocess.DEVNULL, check=True)
        runs.append(time.perf_counter() - start)
    quartiles = statistics.quantiles(runs, n=4)
    return {"median_s": statistics.median(runs), "q1_s": quartiles[0], "q3_s": quartiles[2],
            "runs_s": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="written to BENCH_<label>.json in the repo root")
    parser.add_argument("--src", metavar="COMMIT",
                        help="measure this commit's src/ instead of the working tree's")
    args = parser.parse_args(argv)

    workloads, per_layer, env = {}, {}, None
    with measured_tree(args.src) as (root, commit):
        src_sha256 = tree_digest(root / "src")
        for name in WORKLOADS:
            print(f"running {name} for {SECONDS} s ...", file=sys.stderr)
            workloads[name], env = run_workload(root, name, 0, SECONDS)
        for name in WORKLOADS:
            print(f"running {name} traced for {TRACED_SECONDS} s ...", file=sys.stderr)
            per_layer[name], _ = run_workload(root, name, 1, TRACED_SECONDS)

        fresh = {"python -c pass": wall_times(root, [sys.executable, "-c", "pass"])}
        for command in SUBCOMMANDS:
            fresh[f"cvqpv {command}"] = wall_times(
                root, [sys.executable, "-m", "cvqpv.cli", command])

    record = {
        "schema": "cvqpv.bench/1",
        "commit": commit,
        "src_sha256": src_sha256,
        "env": env,
        "workloads": workloads,
        "per_layer": per_layer,
        "fresh_process": fresh,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
