"""Per-layer statistics from a traced run's spans.

A span is a dict with `name`, `id`, `parent` (0 for none), `task`,
`start_ms` and `end_ms`, as the tune harness and the serve client write
them to .bench_out/spans-<workload>-<seed>.json.

A span's self time is its duration minus the part of its interval that its
children cover. Children can overlap (Γ bootstrap fits run on pool threads),
so "covered" is the union of the child intervals, clipped to the parent.
"""

import json


def quantile(values, q):
    """Linear-interpolated quantile q in [0, 1]; 0 for an empty list."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def self_times(spans):
    """{span id: self time in ms}."""
    children = {}
    for s in spans:
        if s["parent"] != 0:
            children.setdefault(s["parent"], []).append(
                (s["start_ms"], s["end_ms"]))
    out = {}
    for s in spans:
        covered, cur_lo, cur_hi = 0.0, 0.0, None
        for lo, hi in sorted(children.get(s["id"], ())):
            lo, hi = max(lo, s["start_ms"]), min(hi, s["end_ms"])
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = max(0.0, s["end_ms"] - s["start_ms"] - covered)
    return out


def layer_metrics(spans, layers):
    """`<metric>.count/.p50/.p90/.self` for each (span name, metric) pair.

    p50 and p90 are over span durations (ms); self is the summed self time
    (ms). A layer with no spans reads 0.
    """
    self_ms = self_times(spans)
    out = {}
    for span_name, metric in layers:
        mine = [s for s in spans if s["name"] == span_name]
        durations = [s["end_ms"] - s["start_ms"] for s in mine]
        out[metric + ".count"] = len(mine)
        out[metric + ".p50"] = quantile(durations, 0.5)
        out[metric + ".p90"] = quantile(durations, 0.9)
        out[metric + ".self"] = sum(self_ms[s["id"]] for s in mine)
    return out


def attributed_frac(spans, root, catch_all):
    """Share of the root span's time that a layer span accounts for.

    Self time of the root and of the `catch_all` spans (spans that only
    frame their children, such as one task's session) is time no layer span
    covers, so it counts as unattributed:
        1 - (root self + sum of catch-all self) / root duration.
    """
    self_ms = self_times(spans)
    roots = [s for s in spans if s["name"] == root]
    if len(roots) != 1:
        raise ValueError("expected one %r span, found %d" % (root, len(roots)))
    r = roots[0]
    duration = r["end_ms"] - r["start_ms"]
    if duration <= 0:
        return 0.0
    unattributed = self_ms[r["id"]] + sum(
        self_ms[s["id"]] for s in spans if s["name"] in catch_all)
    return 1.0 - unattributed / duration
