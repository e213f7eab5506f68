"""compare() of tools/ab_bench.py on synthetic perfbench results."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "ab_bench.py")
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

BETTER = {"wall_s": "lower", "tail_pct": "higher"}
BOUNDS = {"wall_s": 0.25}


def result(**values):
    """A perfbench final line holding the given metric values."""
    return {"correct": True,
            "metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()}}


def pairs_of(base, change, name="wall_s"):
    return [(result(**{name: b}), result(**{name: c})) for b, c in zip(base, change)]


def test_ties_count_for_neither_side():
    entry = ab_bench.compare(pairs_of([1.0, 1.0, 1.0, 2.0], [1.0, 0.5, 1.5, 2.0]),
                             BETTER)["wall_s"]
    assert (entry["pairs_won"], entry["pairs_lost"]) == (1, 1)
    assert "verdicts" not in entry


def test_higher_is_better_metric():
    entry = ab_bench.compare(pairs_of([10.0, 10.0, 10.0], [11.0, 12.0, 9.0], "tail_pct"),
                             BETTER)["tail_pct"]
    assert entry["better"] == "higher"
    assert (entry["pairs_won"], entry["pairs_lost"]) == (2, 1)


def test_failed_runs_are_dropped_but_count_among_the_pairs_run():
    base = [1.0 + 0.01 * k for k in range(10)]
    pairs = pairs_of(base, [0.5] * 10)
    full = ab_bench.compare(pairs, BETTER, BOUNDS)["wall_s"]
    assert full["verdicts"]["gain_shown"]
    pairs[3] = (pairs[3][0], None)
    dropped = ab_bench.compare(pairs, BETTER, BOUNDS)["wall_s"]
    assert len(dropped["base"]["runs"]) == len(dropped["change"]["runs"]) == 9
    assert dropped["pairs_won"] == 9
    # 9 wins of 10 pairs run still show the gain; 8 do not
    assert dropped["verdicts"]["gain_shown"]
    pairs[4] = (None, pairs[4][1])
    assert not ab_bench.compare(pairs, BETTER, BOUNDS)["wall_s"]["verdicts"]["gain_shown"]
    assert ab_bench.compare([(None, None)], BETTER, BOUNDS) == {}


@pytest.mark.parametrize("base, change, expected", [
    # won 10 of 10 and the median gap 0.5 exceeds the parent's IQR
    ([1.0 + 0.01 * k for k in range(10)], [0.5] * 10,
     dict(gain_shown=True, regressed=False, unresolved=False)),
    # won 10 of 10, but the gap 0.01 is inside the parent's IQR 0.045
    ([1.0 + 0.01 * k for k in range(10)], [0.99 + 0.01 * k for k in range(10)],
     dict(gain_shown=False, regressed=False, unresolved=False)),
    # won 8 of 10
    ([1.0] * 10, [0.5] * 8 + [1.5] * 2,
     dict(gain_shown=False, regressed=False, unresolved=False)),
    # median 30 % worse against a bound of 25 %
    ([1.0] * 10, [1.3] * 10,
     dict(gain_shown=False, regressed=True, unresolved=False)),
    # parent's IQR 1.0 over its median 1.5 exceeds the bound and the runs overlap
    ([1.0, 1.0, 2.0, 2.0] * 2, [1.2, 1.2, 1.8, 1.8] * 2,
     dict(gain_shown=False, regressed=False, unresolved=True)),
    # as wide, but every run of the change reads better than every run of the parent
    ([1.0, 1.0, 2.0, 2.0] * 2, [0.5, 0.5, 0.9, 0.9] * 2,
     dict(gain_shown=False, regressed=False, unresolved=False)),
], ids=["gain", "gap-inside-iqr", "too-few-wins", "regressed", "unresolved", "separated"])
def test_verdicts(base, change, expected):
    entry = ab_bench.compare(pairs_of(base, change), BETTER, BOUNDS)["wall_s"]
    assert entry["verdicts"] == expected
