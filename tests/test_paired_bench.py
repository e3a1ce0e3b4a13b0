"""The verdict arithmetic of tools/paired_bench.py, on fixed numbers, and the
digest that names a measured src/ tree in its records."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import paired_bench  # noqa: E402
import record_bench  # noqa: E402

# exclusive quartiles of 10..19: q1 = 11.75, median 14.5, q3 = 17.25, so the IQR is 5.5
PARENT = [10.0 + i for i in range(10)]


def test_quartiles():
    s = paired_bench.spread(PARENT)
    assert (s["q1"], s["median"], s["q3"]) == (11.75, 14.5, 17.25)


@pytest.mark.parametrize("shift, gain", [(6.0, True), (5.0, False)])
def test_gain_needs_medians_apart_by_more_than_the_parent_iqr(shift, gain):
    m = paired_bench.compare(PARENT, [v + shift for v in PARENT], "higher", 0.15)
    assert m["wins"] == 10
    assert m["gain"] is gain
    assert m["worse_rel"] == pytest.approx(-shift / 14.5)
    assert not m["regression"]


@pytest.mark.parametrize("losses, gain", [(1, True), (2, False)])
def test_gain_needs_nine_wins_in_ten(losses, gain):
    change = [v + 6.0 for v in PARENT]
    change[:losses] = [v - 1.0 for v in PARENT[:losses]]
    m = paired_bench.compare(PARENT, change, "higher", 0.15)
    assert m["wins"] == 10 - losses
    assert m["gain"] is gain


@pytest.mark.parametrize("factor, regression", [(1.2, True), (1.1, False)])
def test_regression_is_relative_to_the_parent_median(factor, regression):
    # lower is better here: a median 20% above the parent's is worse than a 0.15 bound
    m = paired_bench.compare(PARENT, [v * factor for v in PARENT], "lower", 0.15)
    assert m["worse_rel"] == pytest.approx(factor - 1.0)
    assert m["regression"] is regression
    assert m["wins"] == 0 and not m["gain"]


@pytest.mark.parametrize("bound, unresolved", [(0.35, True), (0.40, False)])
def test_unresolved_when_the_parent_iqr_is_wider_than_the_bound(bound, unresolved):
    # the parent's IQR is 5.5 on a median of 14.5, 37.9% of it; the change is identical
    m = paired_bench.compare(PARENT, list(PARENT), "lower", bound)
    assert m["unresolved"] is unresolved
    assert m["worse_rel"] == 0.0 and not m["regression"] and not m["gain"]


def test_resolved_when_every_change_run_is_better():
    # same spread, but the change's worst run (lower is better) beats the parent's best
    m = paired_bench.compare(PARENT, [v - 10.0 for v in PARENT], "lower", 0.35)
    assert not m["unresolved"]
    m = paired_bench.compare(PARENT, [v - 9.0 for v in PARENT], "lower", 0.35)
    assert m["unresolved"]


def run(side, value, failed):
    return {"side": side, "result": {"attempted": 100, "failed": failed, "correct": True,
                                     "metrics": {"work_rate_rel": {"value": value}}}}


def test_verdict_names_regressions_and_a_larger_failed_share():
    declared = [{"name": "work_rate_rel", "better": "higher", "bound": 0.15}]
    runs = [run("parent", 10.0, 0), run("change", 8.0, 1),
            run("change", 8.0, 0), run("parent", 10.0, 0)]
    v = paired_bench.verdict(runs, declared)
    assert v["failed_share"] == {"parent": 0.0, "change": 0.005}
    assert v["regressions"] == ["work_rate_rel", "failed_share"]
    assert v["gains"] == [] and v["unresolved"] == [] and v["all_correct"]


def test_verdict_lists_unresolved_metrics():
    declared = [{"name": "work_rate_rel", "better": "higher", "bound": 0.15}]
    runs = [run(side, value, 0) for value in PARENT for side in ("parent", "change")]
    assert paired_bench.verdict(runs, declared)["unresolved"] == ["work_rate_rel"]


def write_tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


SRC = {"cvqpv/__init__.py": b"", "cvqpv/bounds.py": b"x = 1\n"}


def test_tree_digest_ignores_creation_order_and_caches(tmp_path):
    digest = record_bench.tree_digest(write_tree(tmp_path / "a", SRC))
    copy = {**dict(reversed(SRC.items())), "cvqpv/__pycache__/bounds.cpython-311.pyc": b"\0"}
    assert record_bench.tree_digest(write_tree(tmp_path / "b", copy)) == digest
    assert len(digest) == 64 and int(digest, 16) >= 0


@pytest.mark.parametrize("files", [
    {**SRC, "cvqpv/bounds.py": b"x = 2\n"},  # one byte
    {"cvqpv/__init__.py": b"", "cvqpv/bound.py": b"x = 1\n"},  # one file name
    {**SRC, "cvqpv/extra.py": b""},  # one more file, even an empty one
    {"cvqpv/__init__.py": b"x = 1\n", "cvqpv/bounds.py": b""},  # bytes moved between files
])
def test_tree_digest_changes_with_any_file(tmp_path, files):
    assert (record_bench.tree_digest(write_tree(tmp_path / "a", SRC))
            != record_bench.tree_digest(write_tree(tmp_path / "b", files)))
