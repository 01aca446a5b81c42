"""The benchmark's maths: medians, the tail percentile, run-to-run spread,
failure fractions and span self time. Pure functions, tested by
test_stats.py."""

import statistics

# A tail figure needs at least this many results beyond it.
TAIL_BEYOND = 10


def median(values):
    return statistics.median(values)


def tail(values, beyond=TAIL_BEYOND):
    """The highest percentile that has at least `beyond` results above it.

    Returns (value, percentile): with n sorted results the value is the
    (n - beyond)-th smallest (1-based), which has exactly `beyond` results
    beyond it, and its percentile is 100 * (n - beyond) / n. Needs more
    than `beyond` results."""
    n = len(values)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} results, got {n}")
    rank = n - beyond
    return sorted(values)[rank - 1], 100.0 * rank / n


def failed_frac(attempted, failed):
    """Results whose call threw or whose output check failed, over those
    attempted."""
    if attempted < 1:
        raise ValueError("no results attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted


def adds_up(blocking, untraced, overhead, glue=0.05):
    """Whether the blocking path's layer times add up to the untraced
    result time: within the tracing overhead, plus a `glue` share of the
    result for the driver's own code between spans and the noise of the
    two medians the overhead is made of."""
    return abs(blocking - untraced) <= abs(overhead) + glue * untraced


def quartile_spread(values):
    """(q1, median, q3, (q3 - q1) / median) as statistics.quantiles gives
    the quartiles."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / abs(q2) if q2 else float("inf")


def covered(intervals, start, end):
    """Length of [start, end) covered by the union of `intervals`."""
    total = 0
    cursor = start
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= cursor:
            continue
        lo = max(lo, cursor)
        total += hi - lo
        cursor = hi
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its child spans cover (children may overlap, e.g. pool workers
    running side by side). `spans` maps id -> (parent, start, end); returns
    id -> self time in the same unit."""
    children = {}
    for sid, (parent, start, end) in spans.items():
        if parent in spans:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, []), start, end)
        for sid, (parent, start, end) in spans.items()
    }
