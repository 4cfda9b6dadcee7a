#!/usr/bin/env python3
"""Self-check of the benchmark's own arithmetic (benchstats.py) on
synthetic spans and samples. run.py runs it before every measurement;
run it alone with `python3 perfbench/selfcheck.py`."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats as bs  # noqa: E402


def span(i, name, start, end, parent=-1):
    return {"id": i, "name": name, "start_ns": start, "end_ns": end,
            "parent": parent, "req": 0}


def check():
    failures = []

    def expect(what, got, want, tol=1e-9):
        ok = (got is None and want is None) or (
            got is not None and want is not None and abs(got - want) <= tol)
        if not ok:
            failures.append(f"{what}: got {got!r}, want {want!r}")

    # Percentile rule: p99 needs 1000 samples (10 beyond), p90 needs 100.
    expect("p99 of 999", bs.percentile(list(range(999)), 0.99), None)
    expect("p99 of 1000", bs.percentile(list(range(1, 1001)), 0.99), 990)
    expect("p90 of 99", bs.percentile(list(range(99)), 0.90), None)
    expect("p90 of 100", bs.percentile(list(range(1, 101)), 0.90), 90)
    expect("median of 3", bs.percentile([5, 1, 3], 0.5), 3)
    expect("median of 1", bs.percentile([7], 0.5), 7)
    # A noisy chunk moves one window's p99, not the windowed figure.
    values = [1.0] * 3000 + [100.0] * 40 + [1.0] * 2960
    expect("windowed p99", bs.windowed_percentile(values, 0.99, 6), 1.0)
    expect("windowed p99, chunks too small",
           bs.windowed_percentile(list(range(500)), 0.99, 5), None)

    # Self time and coverage, with overlapping (concurrent) children.
    spans = [
        span(0, "root", 0, 100),
        span(1, "a", 10, 40, 0),
        span(2, "a", 30, 60, 0),   # overlaps span 1
        span(3, "b", 70, 95, 0),
        span(4, "leaf", 75, 80, 3),
    ]
    selfs = bs.self_times(spans)
    expect("root self", selfs[0], 100 - 50 - 25)
    expect("b self", selfs[3], 25 - 5)
    expect("leaf self", selfs[4], 5)
    expect("coverage", bs.coverage(spans, {"root"}), 0.75)
    expect("coverage, no roots", bs.coverage(spans, {"other"}), 1.0)
    expect("covered a", bs.covered_per_root(spans, "a")[0], 50)
    expect("union", bs.union_length([(0, 5), (3, 8), (10, 12)]), 10)

    # Rank quantile, and the best slice: a tail that is noisy in all but
    # one slice reads as that slice's tail.
    expect("lower quartile", bs.quantile(list(range(8, 0, -1)), 0.25), 3)
    expect("upper quartile", bs.quantile(list(range(1, 9)), 0.75), 7)
    expect("quantile of none", bs.quantile([], 0.5), None)
    mostly_noisy = [1.0] * 1000 + ([1.0] * 980 + [70.0] * 20) * 9
    slice_p99s = bs.slice_percentiles(mostly_noisy, 0.99, 10)
    expect("slices", len(slice_p99s), 10)
    expect("best-slice p99", min(slice_p99s), 1.0)
    expect("median-slice p99", bs.quantile(slice_p99s, 0.5), 70.0)

    # Generator validity: behind only when its lag is over the limit and
    # most of the tail.
    limit = 1000.0
    expect("generator fine", float(bs.generator_behind(200.0, 5000.0, limit)), 0.0)
    expect("daemon behind", float(bs.generator_behind(2000.0, 9000.0, limit)), 0.0)
    expect("generator behind", float(bs.generator_behind(3000.0, 4000.0, limit)), 1.0)

    return failures


def main():
    failures = check()
    for f in failures:
        print(f"selfcheck: {f}", file=sys.stderr)
    if not failures:
        print("selfcheck: ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
