"""Pure helpers of the sweep-path benchmark: statistics, golden checks
and span arithmetic. `run.py` does the process and file work; everything
here is a function of its arguments, so `test_benchlib.py` covers it."""

import json
import os
import statistics


# --- statistics ---------------------------------------------------------


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them
    (the "exclusive" method); a single value is its own quartiles."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def median(values):
    return statistics.median(values)


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least `p` per
    cent of the values at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


# --- golden checks ------------------------------------------------------

# `tests/golden/sweep-verified-fsync.json` leaves out the mean round
# count; the paper's FSYNC cell is pinned at 9.12 (two decimals) by the
# sweep CLI's expected output.
FSYNC_MEAN_ROUNDS = 9.12

# Full-cell model-checking goldens at n = 7, by summary `sched` name.
FULL_CELL_GOLDENS = {
    "adversary": "adversary-verified-full.json",
    "crash-f1": "crash-verified-full.json",
    "lcm-async": "async-verified-full.json",
}


def load_goldens(golden_dir):
    """Expected summary fields per (summary sched name, n), read from the
    repository's golden files."""
    def read(name):
        with open(os.path.join(golden_dir, name)) as f:
            return json.load(f)

    goldens = {}
    fsync = read("sweep-verified-fsync.json")
    fsync["mean_rounds"] = FSYNC_MEAN_ROUNDS
    goldens[("fsync", 7)] = fsync
    for sched, name in FULL_CELL_GOLDENS.items():
        row = read(name)
        goldens[(sched, 7)] = {k: row[k] for k in ("total", "proof", "refuted", "undecided", "digest")}
    for row in read("nsweep-verified.json"):
        if "digest" in row:  # full cells; strided sample rows carry no digest
            goldens[(row["sched"], row["n"])] = {
                k: row[k] for k in ("total", "proof", "refuted", "undecided", "digest")
            }
    return goldens


def summary_field(summary, key):
    """A golden key's value in a sweep summary: verdict tallies live in
    the `adversary` block for every model-checking cell."""
    if key in ("proof", "refuted", "undecided") and summary.get("adversary") is not None:
        return summary["adversary"].get(key)
    if key == "mean_rounds":
        return round(summary.get("mean_rounds", -1.0), 2)
    return summary.get(key)


def check_summary(summary, expected):
    """Mismatches between a sweep summary and its golden pins, as
    human-readable strings; empty when the cell is correct. A cell that
    leaves any class undecided fails even if its golden says otherwise."""
    problems = []
    for key, want in expected.items():
        got = summary_field(summary, key)
        if got != want:
            problems.append(f"{key}: got {got!r}, golden {want!r}")
    if summary.get("undecided", 0) != 0:
        problems.append(f"{summary['undecided']} classes undecided")
    return problems


# --- spans --------------------------------------------------------------


def covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover.
    `spans` is a list of dicts with `start`, `end` and `parent` (an index
    into the list, or None)."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return [
        (s["end"] - s["start"]) - covered(children[i], s["start"], s["end"])
        for i, s in enumerate(spans)
    ]


def layer_self_times(spans):
    """Self time summed per layer (the span name's first component)."""
    out = {}
    for s, t in zip(spans, self_times(spans)):
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


def coverage(spans, root_name=None):
    """Share of the root spans' time (only roots called `root_name`, when
    given) that named child spans cover."""
    roots = [i for i, s in enumerate(spans)
             if s["parent"] is None and (root_name is None or s["name"] == root_name)]
    selfs = self_times(spans)
    total = sum(spans[i]["end"] - spans[i]["start"] for i in roots)
    return 1.0 - sum(selfs[i] for i in roots) / total if total else 0.0


def total_of(spans, name, parent_name=None):
    """Summed duration of the spans called `name` (whose parent is called
    `parent_name`, when given)."""
    return sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] == name
        and (parent_name is None or (s["parent"] is not None and spans[s["parent"]]["name"] == parent_name))
    )
