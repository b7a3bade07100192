"""Order statistics shared by the runner and the comparison command."""

from __future__ import annotations

import statistics


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values) -> tuple[float, float] | None:
    """(percentile, value) of the highest order statistic with at least ten
    samples beyond it, or None when there are ten samples or fewer.

    Of n sorted samples, the (n-10)-th is the highest with ten above it; it
    sits at the 100 (n-10)/n percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def describe(values) -> dict:
    """Median, quartiles, tail percentile and sample count of a metric."""
    values = [float(v) for v in values]
    q1, med, q3 = quartiles(values)
    t = tail(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "tail_percentile": None if t is None else t[0],
        "tail_value": None if t is None else t[1],
        "samples": values,
    }
