"""Output checks: per-request invariants and the default-seed digest."""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance for float digest entries: far below any real
#: behaviour change, above float-summation reordering (~1e-14).
DIGEST_RTOL = 1e-9


def report_columns(report) -> dict:
    """The report's records as numpy columns, in record order."""
    records = report.records
    n = len(records)

    def column(getter, dtype=np.float64):
        return np.fromiter((getter(r) for r in records), dtype, n)

    return {"req_id": column(lambda r: r.request.req_id, np.int64),
            "arrival_s": column(lambda r: r.request.arrival_s),
            "admitted_s": column(lambda r: r.admitted_s),
            "first_token_s": column(lambda r: r.first_token_s),
            "finish_s": column(lambda r: r.finish_s)}


def request_rows(report) -> list:
    """One ``[req_id, arrival_s, first_token_s, finish_s]`` row per
    completed request (empty without a report)."""
    if report is None:
        return []
    cols = report_columns(report)
    return np.column_stack([cols["req_id"], cols["arrival_s"],
                            cols["first_token_s"],
                            cols["finish_s"]]).tolist()


def check_report(report, trace) -> int:
    """How many of ``trace``'s requests fail an invariant.

    Every request completes exactly once; arrival <= admission <= first
    token <= finish (so TTFT <= latency); finish times are monotone in
    record order; and a cluster's per-replica completions and routing
    counts add up to the trace.
    """
    cols = report_columns(report)
    ids = cols["req_id"]
    expected = np.fromiter((r.req_id for r in trace), np.int64, len(trace))
    unique, counts = np.unique(ids, return_counts=True)
    bad = ~np.isin(ids, expected) | np.isin(ids, unique[counts > 1])
    times = [cols[k] for k in ("arrival_s", "admitted_s", "first_token_s",
                               "finish_s")]
    for earlier, later in zip(times, times[1:]):
        bad |= ~(earlier <= later)
    finish = cols["finish_s"]
    bad[1:] |= finish[1:] < finish[:-1]
    failed = int(bad.sum()) + int(np.setdiff1d(expected, ids).size)
    replicas = getattr(report, "replicas", None)
    if replicas is not None:
        completed = sum(r.completed for r in replicas)
        routed = sum(report.routed)
        failed += abs(completed - len(trace)) + abs(routed - len(trace))
    return min(failed, len(trace))


def digest_mismatches(expected, actual, path="") -> list[str]:
    """Paths where ``actual`` differs from ``expected`` (floats within
    :data:`DIGEST_RTOL`, everything else exactly)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                out.append(f"{path}{key}")
            else:
                out += digest_mismatches(expected[key], actual[key],
                                         f"{path}{key}.")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [path.rstrip(".")]
        out = []
        for index, (e, a) in enumerate(zip(expected, actual)):
            out += digest_mismatches(e, a, f"{path}{index}.")
        return out
    if isinstance(expected, float) or isinstance(actual, float):
        if isinstance(expected, (int, float)) and \
                isinstance(actual, (int, float)) and \
                math.isclose(expected, actual, rel_tol=DIGEST_RTOL):
            return []
        return [path.rstrip(".")]
    return [] if expected == actual else [path.rstrip(".")]
