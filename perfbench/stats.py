"""The benchmark's own arithmetic: percentiles, hypervolume, span self
time, open-loop accounting and run-to-run spread.

Pure standard-library functions with no knowledge of ``repro``, so they
are tested on hand-computed inputs (``perfbench/tests``).
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence

#: a percentile is reported only when at least this many samples lie
#: beyond it, so one or two stragglers cannot set the figure
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def percentile(values: Iterable[float], q: float) -> "tuple[float, int]":
    """Nearest-rank ``q``-th percentile and the sample count.

    Refuses (``TooFewSamples``) unless at least :data:`MIN_BEYOND`
    samples rank above the percentile: p50 needs 20 samples, p90 100.
    """
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if not 0 < q < 100:
        raise ValueError(f"percentile q must be in (0, 100), got {q}")
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {max(n - rank, 0)} beyond it "
            f"(needs {MIN_BEYOND})"
        )
    return xs[rank - 1], n


def median(values: Iterable[float]) -> float:
    return float(statistics.median(list(values)))


def lower_quartile(values: Iterable[float]) -> float:
    """First quartile, ``statistics.quantiles(values, n=4, method="inclusive")``.

    Of many short timings of the same work, a slow spell of the host
    moves the lower quartile much less than the median.  One value is
    its own quartile.
    """
    xs = [float(v) for v in values]
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=4, method="inclusive")[0]


def seed_balanced(values: Iterable["tuple[int, float]"]) -> float:
    """Mean over study seeds of each seed's lower quartile, from
    ``(seed, value)`` pairs: every seed weighs the same, however often
    it ran."""
    by_seed: "dict[int, list[float]]" = {}
    for seed, value in values:
        by_seed.setdefault(seed, []).append(float(value))
    return statistics.fmean(lower_quartile(v) for v in by_seed.values())


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the
    median — the steadiness measure the benchmark's bounds are set from."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


# -- search quality ---------------------------------------------------------


def pareto_front(points: Iterable[Sequence[float]]) -> "list[tuple[float, float]]":
    """Non-dominated 2-D points (both minimized), sorted by the first."""
    front: "list[tuple[float, float]]" = []
    for x, y in sorted({(float(p[0]), float(p[1])) for p in points}):
        if not front or y < front[-1][1]:
            front.append((x, y))
    return front


def hypervolume_2d(
    points: Iterable[Sequence[float]], reference: Sequence[float]
) -> float:
    """Area dominated by the front and bounded by ``reference``.

    Both objectives are minimized; points that do not strictly dominate
    the reference contribute nothing.
    """
    rx, ry = float(reference[0]), float(reference[1])
    inside = [p for p in points if p[0] < rx and p[1] < ry]
    hv = 0.0
    prev_y = ry
    for x, y in pareto_front(inside):
        hv += (rx - x) * (prev_y - y)
        prev_y = y
    return hv


# -- spans -------------------------------------------------------------------
# A span is (id, parent, layer, start, end, thread, key); ``parent`` is
# the id of the innermost span open on the same thread when it began
# (0 for none).


def _union_length(intervals: Iterable["tuple[float, float]"]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clip(a: float, b: float, lo: float, hi: float) -> "tuple[float, float]":
    return max(a, lo), min(b, hi)


def self_times(
    spans: Sequence[Sequence], window: "tuple[float, float] | None" = None
) -> "dict[int, float]":
    """Each span's self time: the part of its interval (within
    ``window``, when given) that none of its child spans covers."""
    lo, hi = window if window is not None else (-math.inf, math.inf)
    children: "dict[int, list]" = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)
    out: "dict[int, float]" = {}
    for s in spans:
        a, b = _clip(s[3], s[4], lo, hi)
        if b <= a:
            out[s[0]] = 0.0
            continue
        covered = _union_length(
            _clip(c[3], c[4], a, b) for c in children.get(s[0], ())
        )
        out[s[0]] = (b - a) - covered
    return out


def layer_table(
    spans: Sequence[Sequence], window: "tuple[float, float]"
) -> "tuple[dict[str, float], float]":
    """Self seconds per layer on one thread, and the unattributed rest.

    ``spans`` must come from a single thread.  The layers' self times
    and the unattributed remainder partition the window, so their sum
    equals the window length; a mismatch means the span tree is wrong.
    """
    selfs = self_times(spans, window)
    per_layer: "dict[str, float]" = {}
    for s in spans:
        per_layer[s[2]] = per_layer.get(s[2], 0.0) + selfs[s[0]]
    lo, hi = window
    ids = {s[0] for s in spans}
    top = [_clip(s[3], s[4], lo, hi) for s in spans if s[1] not in ids]
    unattributed = (hi - lo) - _union_length(top)
    return per_layer, unattributed


def outermost(spans: Sequence[Sequence], layer: str) -> "list":
    """Spans of ``layer`` not nested in another span of the same layer."""
    by_id = {s[0]: s for s in spans}
    out = []
    for s in spans:
        if s[2] != layer:
            continue
        parent = by_id.get(s[1])
        while parent is not None and parent[2] != layer:
            parent = by_id.get(parent[1])
        if parent is None:
            out.append(s)
    return out


def busy(spans: Sequence[Sequence], window: "tuple[float, float]") -> float:
    """Inclusive seconds the given (non-overlapping) spans spend inside
    ``window``."""
    lo, hi = window
    return sum(max(0.0, min(s[4], hi) - max(s[3], lo)) for s in spans)


# -- open-loop load ----------------------------------------------------------


def open_loop(
    samples: Iterable["tuple[float, float, float]"],
) -> "tuple[list[float], list[float]]":
    """Latency and generator lateness, in ms, of open-loop requests.

    Each sample is ``(due, sent, done)``.  Latency runs from when the
    request was *due*, so a stall that delays later requests is charged
    to them too; lateness is how far behind its schedule the generator
    sent each one.
    """
    latency, lateness = [], []
    for due, sent, done in samples:
        latency.append(1e3 * (done - due))
        lateness.append(1e3 * max(0.0, sent - due))
    return latency, lateness
