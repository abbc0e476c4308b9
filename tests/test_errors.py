import re

import pytest

from muxepi import ConfigError, InvalidArgumentError
from muxepi.errors import check_range


@pytest.mark.parametrize(
    "value, low, high, bounds, message",
    [(0.0, 0.0, 1.0, "()", "x 0.0 outside range (0.0, 1.0)"),
     (1.0, 0.0, 1.0, "()", "x 1.0 outside range (0.0, 1.0)"),
     (float("nan"), 0.0, 1.0, "()", "x nan outside range (0.0, 1.0)"),
     (0.0, 0.0, 1.0, "(]", "x 0.0 outside range (0.0, 1.0]"),
     (1.0, 0.0, 1.0, "[)", "x 1.0 outside range [0.0, 1.0)"),
     (float("nan"), 0.0, 1.0, "[]", "x nan outside range [0.0, 1.0]"),
     (1.5, 0.0, 1.0, "[]", "x 1.5 outside range [0.0, 1.0]"),
     (0, 0, None, "()", "x must be > 0, got 0"),
     (-1, 0, None, "[]", "x must be >= 0, got -1"),
     (float("nan"), 0, None, "()", "x must be > 0, got nan")],
    ids=["open_low", "open_high", "open_nan", "half_open_low", "half_open_high", "closed_nan",
         "closed_above", "open_unbounded", "closed_unbounded", "open_unbounded_nan"],
)
def test_value_outside_names_the_interval(value, low, high, bounds, message):
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
        check_range("x", value, low, high, bounds=bounds)


@pytest.mark.parametrize(
    "value, high, bounds",
    [(0.5, 1.0, "()"), (1.0, 1.0, "(]"), (0.0, 1.0, "[)"), (0.0, 1.0, "[]"), (1.0, 1.0, "[]"),
     (1e-300, None, "()"), (0.0, None, "[]")],
)
def test_value_inside_is_returned(value, high, bounds):
    assert check_range("x", value, 0.0, high, bounds=bounds) is value


def test_error_class_is_the_callers():
    with pytest.raises(ConfigError, match=r"^--jobs must be >= 1, got 0$"):
        check_range("--jobs", 0, 1, error=ConfigError)
