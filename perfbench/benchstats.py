"""Arithmetic of the repository benchmark, kept apart so selfcheck.py can
test it on synthetic spans and samples.

Percentile rule: a tail percentile q is reported only when at least
MIN_BEYOND samples lie beyond it, i.e. n * (1 - q) >= MIN_BEYOND. Medians
are always reported.
"""

import math

MIN_BEYOND = 10


def supports(n, q):
    """True when n samples carry at least MIN_BEYOND samples beyond q."""
    return n * (1.0 - q) >= MIN_BEYOND - 1e-9


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 1]) of `values`; None when the
    sample is too small for the percentile rule (medians excepted)."""
    if not values:
        return None
    if q > 0.5 and not supports(len(values), q):
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def slice_percentiles(values, q, slices):
    """The q-percentile of each of `slices` consecutive equal chunks of
    `values`, in order. Chunks too small for the percentile rule are left
    out; with fewer values than slices, the whole is one chunk."""
    size = len(values) // slices if slices > 0 else 0
    if size == 0:
        p = percentile(values, q)
        return [] if p is None else [p]
    out = []
    for w in range(slices):
        p = percentile(values[w * size:(w + 1) * size], q)
        if p is not None:
            out.append(p)
    return out


def windowed_percentile(values, q, slices):
    """The median of slice_percentiles: a burst of host noise moves some
    slices, not the figure. None when no slice supports the percentile."""
    return quantile(slice_percentiles(values, q, slices), 0.5)


def quantile(values, q):
    """The q-quantile (q in [0, 1]) of `values` by rank: sorted index
    floor(q * n), clamped to the last; None when empty."""
    if not values:
        return None
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def children_of(spans):
    """id -> list of child spans."""
    kids = {}
    for s in spans:
        if s["parent"] >= 0:
            kids.setdefault(s["parent"], []).append(s)
    return kids


def self_times(spans):
    """id -> self time: the span's duration minus the part of its interval
    its children cover (children may overlap one another)."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        covered = union_length(
            (max(c["start_ns"], s["start_ns"]), min(c["end_ns"], s["end_ns"]))
            for c in kids.get(s["id"], [])
            if c["end_ns"] > s["start_ns"] and c["start_ns"] < s["end_ns"])
        out[s["id"]] = (s["end_ns"] - s["start_ns"]) - covered
    return out


def coverage(spans, root_names):
    """Share of the named roots' wall time their children cover, over all
    such roots together (1.0 when there are none)."""
    selfs = self_times(spans)
    wall = untraced = 0
    for s in spans:
        if s["parent"] < 0 and s["name"] in root_names:
            wall += s["end_ns"] - s["start_ns"]
            untraced += selfs[s["id"]]
    return 1.0 if wall == 0 else 1.0 - untraced / wall


def covered_per_root(spans, name):
    """For each root, the wall time its spans called `name` cover (union of
    their intervals, so concurrent spans are not counted twice)."""
    by_root = {}
    index = {s["id"]: s for s in spans}
    for s in spans:
        if s["name"] != name or s["parent"] < 0:
            continue
        root = s
        while root["parent"] >= 0:
            root = index[root["parent"]]
        by_root.setdefault(root["id"], []).append((s["start_ns"], s["end_ns"]))
    return [union_length(v) for v in by_root.values()]


def generator_behind(lag_p99, select_p99, limit):
    """The open-loop generator, not the daemon, fell behind: its own send
    lag is over the latency limit and makes up most of the measured tail."""
    if lag_p99 is None or select_p99 is None:
        return False
    return lag_p99 > limit and lag_p99 > 0.5 * select_p99
