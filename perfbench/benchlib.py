"""The benchmark's arithmetic: percentiles, open-loop latency, rate search,
request-mix shares and the server's sketch stats line.

Kept apart from run.py so test_benchlib.py can pin every rule the reported
numbers rest on.
"""

import math
import re

# Percentiles considered for the tail, highest first. A percentile is
# reported only when at least MIN_BEYOND samples lie beyond it.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def valid_metric_name(name):
    """Letters, digits, '_', '.', '-'; starts with a letter or digit; <= 64."""
    return isinstance(name, str) and bool(_NAME.match(name))


def valid_unit(unit):
    return isinstance(unit, str) and bool(_UNIT.match(unit))


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of the
    samples at or below it. Infinite samples (failed requests) sort last."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values):
    """The middle sample (mean of the two middle ones for an even count)."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def paired_ratio_pct(numerators, denominators):
    """Median over pairs of 100 * numerator / denominator. Each pair is run
    back to back, so the host's slow drift reaches both sides alike, and the
    median drops a pair that a burst of contention hit on one side only."""
    if len(numerators) != len(denominators):
        raise ValueError("unpaired samples")
    return median([100.0 * a / b for a, b in zip(numerators, denominators)])


def tail_percentile(count):
    """Highest percentile in TAIL_PERCENTILES with >= MIN_BEYOND samples
    strictly beyond its nearest rank, or None when the sample is too small."""
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * count))
        if count - rank >= MIN_BEYOND:
            return p
    return None


def summarize(values):
    """Median, sample count, and the highest supported tail percentile."""
    out = {"median": median(values), "n": len(values)}
    p = tail_percentile(len(values))
    if p is not None:
        out["tail_p"] = p
        out["tail"] = percentile(values, p)
    return out


def open_loop_latencies(rows):
    """Latency of each scheduled request, from when it was due to when its
    reply arrived. `rows` are (due, sent, received, status) in seconds;
    a request that failed or got no reply is infinitely late, so it misses
    any latency limit. Timing from `due` rather than `sent` is the
    coordinated-omission correction: a stall delays the sends scheduled
    behind it, and that delay is charged to them."""
    out = []
    for due, _sent, received, status in rows:
        if status != "ok" or received < 0:
            out.append(math.inf)
        else:
            out.append((received - due) * 1e3)
    return out


def backlog_growing(latencies_ms, limit_ms):
    """True when the last tenth of the window waits longer than the limit at
    its median: the queue is still growing when the window closes."""
    tail = latencies_ms[len(latencies_ms) - max(1, len(latencies_ms) // 10):]
    return median(tail) > limit_ms


def meets_limit(latencies_ms, limit_ms):
    """P99 within the limit (every failure counts as a miss) and no growing
    backlog."""
    return (percentile(latencies_ms, 99.0) <= limit_ms
            and not backlog_growing(latencies_ms, limit_ms))


def max_rate(results, limit_ms):
    """Highest offered rate that meets the limit, scanning upward from the
    lowest and stopping at the first rate that does not. `results` maps
    rate -> latencies (ms). None when even the lowest rate misses."""
    best = None
    for rate in sorted(results):
        if not meets_limit(results[rate], limit_ms):
            break
        best = rate
    return best


def equal_cpu_shares(cost_us):
    """Request shares under which every class takes the same share of the
    server's compute time: a class's share of the requests is proportional
    to 1 / its cost. `cost_us` maps class -> solo cost per request."""
    if not cost_us or any(not cost > 0 for cost in cost_us.values()):
        raise ValueError("every class needs a positive cost")
    inverse = {cls: 1.0 / cost for cls, cost in cost_us.items()}
    total = sum(inverse.values())
    return {cls: value / total for cls, value in inverse.items()}


_SKETCH_LINE = re.compile(
    r"^sketch: (\d+) served, (\d+) fallbacks \(index (\w+)\)$", re.M)


def sketch_stats(text):
    """(served, fallbacks, index state) from the last sketch stats line
    privim_serve prints on exit, or None when there is none."""
    found = _SKETCH_LINE.findall(text)
    if not found:
        return None
    served, fallbacks, index = found[-1]
    return int(served), int(fallbacks), index


def sketch_index_served(stats, sent):
    """True when `stats` (from sketch_stats) shows the index attached, no
    sketch request fallen back to CELF, and at least one served from the
    index whenever `sent` sketch requests were sent."""
    if stats is None:
        return False
    served, fallbacks, index = stats
    return index == "attached" and fallbacks == 0 and (served > 0 or sent == 0)
