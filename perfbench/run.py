#!/usr/bin/env python3
"""Sweep-path benchmark runner.

Runs real sweep cells through `simlab::sweep::run_sweep_with`, one fresh
process per cell (`perfbench-cell`, built from this directory), checks
every summary against the repository's golden pins, and prints the
end-to-end metrics (or, with `--trace 1`, the per-layer metrics of one
traced repetition) as the last line of standard output.

    python3 perfbench/run.py --workload n8-crash --seed 1 --seconds 20 --trace 0

Run it from the root of a repository checkout. It builds with cargo into
`$CARGO_TARGET_DIR` (default `.bench_build`) and writes sweep outputs,
results and spans under `.bench_run/`. Workloads are closed loops: one
runner, one cell process at a time, each with 2 threads, 8 shards and an
empty output directory. Inputs are exhaustive class spaces, so the seed
is recorded but changes nothing. See README.md for the metrics and
workloads.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time

import benchlib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_DIR = os.path.join(ROOT, ".bench_run")
# Fixed so that every run compares with baseline.json, which is measured
# at these values.
THREADS = 2
SHARDS = 8
CELL_TIMEOUT_S = 150

# (sched spec, robot count) per workload, in the order the cells run.
WORKLOADS = {
    "n7-matrix-cold": [("fsync", 7), ("crash:1", 7), ("lcm-async", 7), ("adversary", 7)],
    "n8-crash": [("crash:1", 8)],
}

# Summary `sched` names, for the golden lookup.
SCHED_NAMES = {"fsync": "fsync", "crash:1": "crash-f1", "lcm-async": "lcm-async", "adversary": "adversary"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Builds the cell binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "simlab", "Cargo.toml")):
        fail("crates/simlab is missing: run from the root of a repository checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join("perfbench", "Cargo.toml")]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("cargo build failed")
    return os.path.join(ROOT, target, "release", "perfbench-cell")


def provenance():
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
        except OSError:
            return "unknown"
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 and out.stdout.strip() else "unknown"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "commit": first_line(["git", "rev-parse", "HEAD"]),
        "rustc": first_line(["rustc", "-V"]),
    }


def run_cell(binary, goldens, sched, n, tag, trace):
    """One cell in a fresh process, writing into `.bench_run/cells/<tag>`
    (emptied first). Returns its timings, CPU time, peak RSS, output line,
    bytes written and golden-check problems."""
    out_dir = os.path.join(RUN_DIR, "cells", tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    stdout_path = out_dir + ".out"
    cmd = [binary, "--sched", sched, "--n", str(n), "--threads", str(THREADS),
           "--shards", str(SHARDS), "--out", out_dir] + (["--trace"] if trace else [])
    with open(stdout_path, "w") as stdout:
        t_spawn = time.time()
        proc = subprocess.Popen(cmd, stdout=stdout)
        killer = threading.Timer(CELL_TIMEOUT_S, proc.kill)
        killer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    cell = {"sched": sched, "n": n, "t_spawn": t_spawn, "rc": proc.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime, "out_dir": out_dir, "problems": []}
    if proc.returncode != 0:
        cell["problems"].append(f"exit code {proc.returncode}")
        return cell
    with open(stdout_path) as f:
        line = json.loads(f.read().strip().splitlines()[-1])
    with open(line["summary"]) as f:
        summary = json.load(f)
    golden = goldens.get((SCHED_NAMES[sched], n))
    cell["problems"] = ["no golden pin"] if golden is None else benchlib.check_summary(summary, golden)
    # The cell reports its own peak: wait4's ru_maxrss would also count
    # this runner's resident set, which the child holds until exec.
    cell.update(line=line, summary=summary, rss_mb=line["peak_rss_kb"] / 1024.0,
                bytes_written=sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)))
    return cell


def cell_time(cell, span_name):
    """Seconds from spawn to the end of the cell's first `span_name` span."""
    line = cell["line"]
    end_ns = next(s["end_ns"] for s in line["spans"] if s["name"] == span_name)
    return line["epoch"] + end_ns / 1e9 - cell["t_spawn"]


def run_rep(binary, goldens, workload, trace=False):
    cells = [run_cell(binary, goldens, sched, n, f"{sched.replace(':', '')}-n{n}", trace)
             for sched, n in WORKLOADS[workload]]
    rep = {"cells": cells, "failed": sum(1 for c in cells if c["problems"])}
    if rep["failed"]:
        return rep
    wall = sum(cell_time(c, "simlab.run_sweep_with") for c in cells)
    setup = sum(cell_time(c, "core.warmup") for c in cells)
    classes = sum(c["line"]["classes"] for c in cells)
    rep["e2e"] = {
        "wall_s": wall,
        "setup_s": setup,
        "classes_per_s": classes / (wall - setup),
        "cpu_s": sum(c["cpu_s"] for c in cells),
        "peak_rss_mb": max(c["rss_mb"] for c in cells),
    }
    return rep


def measure(binary, goldens, workload, seconds):
    """Untraced repetitions until `seconds` have passed (at least three)."""
    reps = []
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline or len(reps) < 3:
        reps.append(run_rep(binary, goldens, workload))
    return reps


def e2e_stats(reps):
    good = [r["e2e"] for r in reps if "e2e" in r]
    if not good:
        return {}
    stats = {}
    for name in good[0]:
        values = [r[name] for r in good]
        q1, q2, q3 = benchlib.quartiles(values)
        stats[name] = {"median": q2, "q1": q1, "q3": q3, "values": values}
    return stats


def counters(summary):
    snap = (summary.get("metrics") or {}).get("snapshot") or {}
    out = {c["name"]: c["value"] for c in snap.get("counters", [])}
    out.update({g["name"]: g["value"] for g in snap.get("gauges", [])})
    return out


def traced_spans(rep, run_id):
    """The traced repetition's spans in seconds from its first spawn, with
    a `cell.sweep_path` root per process covering spawn to summary on
    disk and a `process.start` child covering spawn to `main`."""
    spans = []
    t0 = rep["cells"][0]["t_spawn"]
    for cell in rep["cells"]:
        line = cell["line"]
        rid = f"{run_id}/{cell['sched']}-n{cell['n']}"
        at = lambda ns: line["epoch"] + ns / 1e9 - t0  # noqa: E731
        root = len(spans)
        spans.append({"name": "cell.sweep_path", "start": cell["t_spawn"] - t0,
                      "end": at(line["sweep_end_ns"]), "parent": None, "run": rid})
        spans.append({"name": "process.start", "start": cell["t_spawn"] - t0,
                      "end": at(0), "parent": root, "run": rid})
        base = len(spans)
        for s in line["spans"]:
            if s["parent"] is not None:
                parent = base + s["parent"]
            elif s["name"] == "cell.traced_passes":
                parent = None
            else:
                parent = root
            spans.append({"name": s["name"], "start": at(s["start_ns"]), "end": at(s["end_ns"]),
                          "parent": parent, "run": rid})
    return spans


def layer_metrics(rep, spans, untraced_wall):
    cells = rep["cells"]
    tot = lambda name, parent=None: benchlib.total_of(spans, name, parent)  # noqa: E731
    ctr = {}
    for cell in cells:
        for k, v in counters(cell["summary"]).items():
            ctr[k] = max(ctr.get(k, 0), v) if k == "explore.peak_bytes" else ctr.get(k, 0) + v
    class_us = [ns / 1e3 for c in cells for ns in c["line"]["class_ns"]]
    check_s = sum(class_us) / 1e6
    wall_t2 = tot("robots.check_chunk", "robots.check_pass")
    wall_t1 = tot("robots.check_chunk", "robots.check_pass_t1")
    sweep_shards = sum(sum(c["line"]["shard_compute_ns"]) for c in cells) / 1e9
    # The sweep's own merge and digest calls cannot be timed from outside
    # it; the traced pass times the same calls on the same records.
    merge, digest = tot("simlab.merge"), tot("simlab.digest")
    first_shard = sum(c["line"]["shard_compute_ns"][0] for c in cells) / 1e9
    other_shards = sum(benchlib.median(c["line"]["shard_compute_ns"][1:]) for c in cells) / 1e9
    selfs = benchlib.layer_self_times(spans)
    rate = lambda hits, misses: hits / (hits + misses) if hits + misses else 0.0  # noqa: E731
    sweep_wall = sum(cell_time(c, "simlab.run_sweep_with") for c in cells)
    return {
        "process.start_s": tot("process.start"),
        "polyhex.enumerate_s": tot("polyhex.enumerate"),
        "core.algo_build_s": tot("core.algo_build"),
        "core.warmup_s": tot("core.warmup"),
        "robots.checker_build_s": tot("robots.checker_build", "robots.check_pass"),
        "robots.check_s": check_s,
        "robots.check_us_p50": benchlib.percentile(class_us, 50) if class_us else 0.0,
        "robots.check_us_p99": benchlib.percentile(class_us, 99) if class_us else 0.0,
        "robots.check_us_max": max(class_us, default=0.0),
        "robots.states": ctr.get("explore.states", 0),
        "robots.edges": ctr.get("explore.edges", 0),
        "robots.phase_a_s": ctr.get("explore.phase_a_ns", 0) / 1e9,
        "robots.phase_b_s": ctr.get("explore.phase_b_ns", 0) / 1e9,
        "robots.phase_c_s": ctr.get("explore.phase_c_ns", 0) / 1e9,
        "robots.phase_d_s": ctr.get("explore.phase_d_ns", 0) / 1e9,
        "robots.memo_table_hit_rate": rate(ctr.get("memo.table.hit", 0), ctr.get("memo.table.miss", 0)),
        "robots.memo_table_hits": ctr.get("memo.table.hit", 0),
        "robots.memo_table_misses": ctr.get("memo.table.miss", 0),
        "robots.memo_info_hit_rate": rate(ctr.get("memo.info.hit", 0), ctr.get("memo.info.miss", 0)),
        "robots.memo_info_hits": ctr.get("memo.info.hit", 0),
        "robots.memo_info_misses": ctr.get("memo.info.miss", 0),
        "robots.oracle_hit_rate": rate(ctr.get("oracle.hit", 0), ctr.get("oracle.miss", 0)),
        "robots.oracle_hits": ctr.get("oracle.hit", 0),
        "robots.oracle_misses": ctr.get("oracle.miss", 0),
        "robots.peak_bytes": ctr.get("explore.peak_bytes", 0),
        "robots.engine_s": tot("robots.engine"),
        "robots.engine_rounds": sum(c["line"]["engine_rounds"] for c in cells),
        "parallel.tasks": ctr.get("parallel.tasks", 0),
        "parallel.steal_batches": ctr.get("parallel.steal_batches", 0),
        "parallel.idle_probes": ctr.get("parallel.idle_probes", 0),
        "parallel.busy_ratio": check_s / (THREADS * wall_t2) if wall_t2 else 0.0,
        "parallel.speedup_t2": wall_t1 / wall_t2 if wall_t2 else 0.0,
        "simlab.shard_compute_s": tot("simlab.run_shard"),
        "simlab.sweep_shard_s": sweep_shards,
        "simlab.persist_s": tot("simlab.run_sweep_with") - sweep_shards - merge - digest,
        "simlab.bytes_written": sum(c["bytes_written"] for c in cells),
        "simlab.merge_s": merge,
        "simlab.digest_s": digest,
        "simlab.first_shard_s": first_shard,
        "simlab.other_shards_p50_s": other_shards,
        "process.self_s": selfs.get("process", 0.0),
        "polyhex.self_s": selfs.get("polyhex", 0.0),
        "core.self_s": selfs.get("core", 0.0),
        "robots.self_s": selfs.get("robots", 0.0),
        "simlab.self_s": selfs.get("simlab", 0.0),
        # Only the traced passes: on the sweep path the `simlab.shard`
        # spans run from one progress callback to the next, so they tile
        # `simlab.run_sweep_with` by construction.
        "trace.coverage": benchlib.coverage(spans, "cell.traced_passes"),
        "trace.overhead_s": sweep_wall - untraced_wall,
    }


def report_failures(reps):
    for i, rep in enumerate(reps):
        for c in rep["cells"]:
            for p in c["problems"]:
                print(f"perfbench: rep {i} cell {c['sched']} n={c['n']} FAILED: {p}", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    prov = provenance()
    if THREADS > prov["nproc"]:
        fail(f"the benchmark runs {THREADS} threads but nproc is {prov['nproc']}")
    binary = build()
    os.makedirs(RUN_DIR, exist_ok=True)
    goldens = benchlib.load_goldens(os.path.join(ROOT, "tests", "golden"))

    tag = f"{args.workload}-s{args.seed}"
    reps = measure(binary, goldens, args.workload, args.seconds)
    stats = e2e_stats(reps)
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": prov, "reps": len(reps), "end_to_end": stats}
    if args.trace:
        traced = run_rep(binary, goldens, args.workload, trace=True)
        reps.append(traced)
        if not traced["failed"] and stats:
            spans = traced_spans(traced, tag)
            metrics = layer_metrics(traced, spans, stats["wall_s"]["median"])
            with open(os.path.join(RUN_DIR, f"spans-{tag}.json"), "w") as f:
                json.dump(spans, f)
            result["per_layer"] = metrics
    report_failures(reps)
    attempted = sum(len(r["cells"]) for r in reps)
    failed = sum(r["failed"] for r in reps)
    result.update(cells_attempted=attempted, cells_failed=failed,
                  cell_fail_ratio=failed / attempted)
    with open(os.path.join(RUN_DIR, f"result-{tag}-trace{args.trace}.json"), "w") as f:
        json.dump(result, f, indent=1)

    with open(os.path.join(ROOT, "perfbench", "metrics.json")) as f:
        catalogue = json.load(f)
    if args.trace:
        values = result.get("per_layer", {})
        wanted = catalogue["per_layer"]
    else:
        values = {k: v["median"] for k, v in stats.items()}
        wanted = catalogue["end_to_end"]
    print(json.dumps(result))
    print(json.dumps({
        "correct": failed == 0 and all(m["name"] in values for m in wanted),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
