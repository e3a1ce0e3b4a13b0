"""Compare one perfbench workload on a parent commit and on this working tree, in pairs.

Run from anywhere in a checkout:

    python3 tools/paired_bench.py HEAD~1 --workload calc_table --seed 11 --pairs 10
    python3 tools/paired_bench.py HEAD --workload mc_plan --seed 11 --pairs 10   # A/A

Each pair runs ``perfbench/run.py --trace 0`` once on PARENT's ``src/``
and once on this checkout's working tree, one after the other; the side that
runs first alternates from pair to pair. ``record_bench.measured_tree``
builds both sides, each in its own temporary directory; the digest of each
side's ``src/`` files is recorded next to its commit (``src_sha256``).

It writes ``PAIRS_<label>_<workload>_<seed>.json`` in the repo root, the
label being PARENT's short hash. The file holds every result line, each
side's median and quartiles of every end-to-end metric that
``BENCHMARK.json`` declares, the pairs the working tree won, and a verdict
per metric:

* a regression is a median worse than the parent's by more than the
  metric's relative bound in ``BENCHMARK.json``, or a larger failed share;
* a gain needs a win in at least 9 of every 10 pairs, and medians further
  apart, in the better direction, than the parent's interquartile range;
* a metric is unresolved when the parent's interquartile range is wider than
  the metric's bound times the parent's median, unless every run of the
  change reads better than every run of the parent: its runs spread too
  widely to tell a regression within the bound from noise.

The file is a report: the verdict is printed and recorded, and nothing
here fails on it.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys

from record_bench import ROOT, git, measured_tree, run_workload, tree_digest

GAIN_WIN_SHARE = 0.9


def spread(values: list[float]) -> dict:
    """Median and quartiles (statistics.quantiles, exclusive method) of two or more values."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "values": values}


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """One metric's verdict from paired values: parent[i] and change[i] ran as pair i."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = spread(parent), spread(change)
    wins = sum(sign * (b - a) > 0.0 for a, b in zip(parent, change))
    # how much worse the change's median is, relative to the parent's (negative: better)
    worse_rel = sign * (p["median"] - c["median"]) / abs(p["median"])
    return {
        "better": better,
        "bound": bound,
        "parent": p,
        "change": c,
        "wins": wins,
        "pairs": len(parent),
        "worse_rel": worse_rel,
        "regression": worse_rel > bound,
        "unresolved": (p["q3"] - p["q1"] > bound * abs(p["median"])
                       and min(sign * b for b in change) <= max(sign * a for a in parent)),
        "gain": (wins >= math.ceil(GAIN_WIN_SHARE * len(parent))
                 and sign * (c["median"] - p["median"]) > p["q3"] - p["q1"]),
    }


def failed_share(lines: list[dict]) -> float:
    attempted = sum(line["attempted"] for line in lines)
    return sum(line["failed"] for line in lines) / attempted if attempted else math.nan


def verdict(runs: list[dict], declared: list[dict]) -> dict:
    """Per-metric comparisons and the overall verdict over paired result lines."""
    lines = {side: [run["result"] for run in runs if run["side"] == side]
             for side in ("parent", "change")}

    def values(side: str, name: str) -> list[float]:
        return [line["metrics"][name]["value"] for line in lines[side]]

    metrics = {m["name"]: compare(values("parent", m["name"]), values("change", m["name"]),
                                  m["better"], m["bound"])
               for m in declared}
    shares = {side: failed_share(side_lines) for side, side_lines in lines.items()}
    regressions = [name for name, m in metrics.items() if m["regression"]]
    if shares["change"] > shares["parent"]:
        regressions.append("failed_share")
    return {
        "metrics": metrics,
        "failed_share": shares,
        "all_correct": all(line["correct"] for side_lines in lines.values() for line in side_lines),
        "regressions": regressions,
        "gains": [name for name, m in metrics.items() if m["gain"]],
        "unresolved": [name for name, m in metrics.items() if m["unresolved"]],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="commit whose src/ is the baseline")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10, help="at least 2")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    label = git("rev-parse", "--short", args.parent)
    runs, env = [], None
    with measured_tree(args.parent) as parent, measured_tree(None) as change:
        trees = {"parent": parent, "change": change}
        src_sha256 = {side: tree_digest(tree[0] / "src") for side, tree in trees.items()}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                print(f"pair {pair + 1}/{args.pairs}: {side} ...", file=sys.stderr)
                result, env = run_workload(trees[side][0], args.workload, 0, seconds, args.seed)
                runs.append({"pair": pair, "side": side, "first": side == order[0],
                             "result": result})

    record = {
        "schema": "cvqpv.pairs/1",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "commits": {side: tree[1] for side, tree in trees.items()},
        "src_sha256": src_sha256,
        "env": env,
        "runs": runs,
        **verdict(runs, benchmark["end_to_end"]),
    }
    path = ROOT / f"PAIRS_{label}_{args.workload}_{args.seed}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    for name, m in record["metrics"].items():
        print(f"{name}: parent {m['parent']['median']:.4g}, change {m['change']['median']:.4g} "
              f"({m['worse_rel']:+.1%} worse), wins {m['wins']}/{m['pairs']}", file=sys.stderr)
    print(f"regressions: {record['regressions'] or 'none'}; gains: {record['gains'] or 'none'}; "
          f"unresolved: {record['unresolved'] or 'none'}", file=sys.stderr)
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
