"""csv_diff() and describe() of tools/bundle_diff.py on synthetic CSV pairs, and
the printed output that run_all() keeps with each bundle."""

import importlib.util
import math
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bundle_diff.py")
_SPEC = importlib.util.spec_from_file_location("bundle_diff", _PATH)
bundle_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bundle_diff)

BASE = ("# ngw-sim v1, columns: mean_e,std_e,config_hash,seed\n"
        "mean_e,std_e,config_hash,seed\n"
        "2.5,0.125,abc,42\n"
        "0.0,nan,abc,42\n")


def test_identical_files(tmp_path):
    for name in ("a.csv", "b.csv"):
        (tmp_path / name).write_text(BASE)
    assert bundle_diff.describe(str(tmp_path / "a.csv"), str(tmp_path / "b.csv")) == "identical"


def test_largest_relative_difference_per_column():
    change = BASE.replace("2.5,0.125", "2.5000000000000004,0.12").replace("0.0,nan", "1e-300,nan")
    worst = bundle_diff.csv_diff(BASE, change)
    assert set(worst) == {"mean_e", "std_e"}
    # the zero that became 1e-300 differs by 1 relative, more than 2.5's last bit
    assert worst["mean_e"] == 1.0
    assert worst["std_e"] == pytest.approx(0.005 / 0.125)


def test_equal_values_spelled_differently_differ_by_zero():
    # the bytes differ, so the column is named; NaN equals NaN
    change = BASE.replace("0.0,nan", "0.00,nan").replace("2.5,", "2.50,")
    assert bundle_diff.csv_diff(BASE, change) == {"mean_e": 0.0}
    assert bundle_diff.csv_diff(BASE, BASE.replace("0.0,nan", "0.0,NaN")) == {"std_e": 0.0}


def test_text_cell_that_differs_is_infinite():
    assert bundle_diff.csv_diff(BASE, BASE.replace("abc", "abd")) == {"config_hash": math.inf}


@pytest.mark.parametrize("change, message", [
    (BASE.replace("mean_e,std_e,config", "mean,std_e,config"), "headers differ"),
    (BASE + "1.0,1.0,abc,42\n", "row counts or widths differ"),
])
def test_shape_changes_are_named(tmp_path, change, message):
    (tmp_path / "a.csv").write_text(BASE)
    (tmp_path / "b.csv").write_text(change)
    assert bundle_diff.describe(str(tmp_path / "a.csv"), str(tmp_path / "b.csv")) == message


def test_describe_lists_columns_of_a_csv_and_lines_of_other_files(tmp_path):
    (tmp_path / "a.csv").write_text(BASE)
    (tmp_path / "b.csv").write_text(BASE.replace("0.125", "0.25"))
    assert bundle_diff.describe(str(tmp_path / "a.csv"), str(tmp_path / "b.csv")) == \
        "std_e 0.5"
    (tmp_path / "a.manifest").write_text("tool = x\noutput a.csv sha256 = 01\nseed = 1\n")
    (tmp_path / "b.manifest").write_text("tool = x\noutput a.csv sha256 = 02\nseed = 1\n")
    assert bundle_diff.describe(str(tmp_path / "a.manifest"),
                                str(tmp_path / "b.manifest")) == "lines 2 differ"


def test_run_all_keeps_printed_lines_without_the_output_path(tmp_path, monkeypatch):
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    monkeypatch.setattr(bundle_diff, "COMMANDS", [("fi_pure", ["fi", "--ra", "0.2"])])
    bundle_diff.run_all(root, str(tmp_path))
    printed = (tmp_path / "fi_pure" / bundle_diff.STDOUT_FILE).read_text().splitlines()
    assert printed[0].startswith("F = ") and "QFI = " in printed[0]
    assert printed[1] == os.path.join(bundle_diff.OUT_TOKEN, "fi.csv")
    assert str(tmp_path) not in "\n".join(printed)
