"""tools/value_grid.py's row records and comparison, without git or a grid."""

import importlib.util
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "value_grid.py"
_SPEC = importlib.util.spec_from_file_location("value_grid", _PATH)
value_grid = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(value_grid)


class Result:
    """The ErrorRatioResult fields a record reads."""

    def __init__(self, error, ratio=0.5, indeterminate=False, warnings=()):
        self.error, self.seminorm_hi, self.ratio, self.bound_factor = error, 2.0, ratio, 3.0
        self.indeterminate, self.warnings = indeterminate, warnings


def record(*args, **kwargs):
    return value_grid.record(lambda: Result(*args, **kwargs))


def test_equal_rows_do_not_differ():
    rows = {"a": record(0.1, warnings=("w",)), "b": record(0.2, indeterminate=True)}
    same = {"a": record(0.1, warnings=("w",)), "b": record(0.2, indeterminate=True)}
    assert value_grid.compare(rows, same) == ([], {})


def test_a_one_ulp_move_differs():
    moved = math.nextafter(0.1, 1.0)
    differing, worst = value_grid.compare({"a": record(0.1)}, {"a": record(moved)})
    assert differing == ["a"]
    assert worst["error"] == (moved - 0.1) / moved and worst["ratio"] == 0.0


def test_nan_against_nan_is_the_same_value():
    nan = {"a": record(math.nan, ratio=math.nan)}
    assert value_grid.compare(nan, {"a": record(math.nan, ratio=math.nan)}) == ([], {})
    differing, worst = value_grid.compare(nan, {"a": record(1.0, ratio=math.nan)})
    assert differing == ["a"] and worst["error"] == math.inf


def test_an_exception_against_a_value_differs():
    def fails():
        raise ValueError("bad row")

    raised = value_grid.record(fails)
    assert raised == {"exception": ["ValueError", "bad row"]}
    differing, worst = value_grid.compare({"a": raised, "b": record(0.1)},
                                          {"a": record(0.1), "b": record(0.1)})
    assert differing == ["a"] and worst == {}


def test_a_row_on_one_side_only_differs():
    assert value_grid.compare({"a": record(0.1)}, {})[0] == ["a"]


class Info:
    """The SeminormInfo field the seminorm column reads."""

    def __init__(self, value):
        self.value = value


def test_the_public_seminorm_is_a_column_compared_bit_for_bit():
    row = record(0.1)
    moved = math.nextafter(0.25, 1.0)
    parent = {"a": dict(row, **value_grid.seminorm(lambda: Info(0.25)))}
    assert parent["a"]["seminorm"] == (0.25).hex()
    assert value_grid.compare(parent, {"a": dict(row, **value_grid.seminorm(lambda: Info(0.25)))}) \
        == ([], {})
    differing, worst = value_grid.compare(
        parent, {"a": dict(row, **value_grid.seminorm(lambda: Info(moved)))})
    assert differing == ["a"]
    assert worst["seminorm"] == (moved - 0.25) / moved and worst["error"] == 0.0


def test_a_seminorm_exception_against_a_value_differs():
    def fails():
        raise ValueError("bad spec")

    raised = value_grid.seminorm(fails)
    assert raised == {"seminorm_exception": ["ValueError", "bad spec"]}
    row = record(0.1)
    differing, worst = value_grid.compare({"a": dict(row, **raised)},
                                          {"a": dict(row, **value_grid.seminorm(lambda: Info(1.0)))})
    assert differing == ["a"] and "seminorm" not in worst
