#!/usr/bin/env python3
"""Benchmark entry point: build the driver, run one workload, report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The driver (perfbench/driver.cc) is
built from the checkout's sources into .bench_build/ on first use.  The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json,
with --trace 1 the per-layer ones.  End-to-end times are scaled to a
nominal host speed: the driver times a fixed reference kernel right
after each task and each set-up, and the task's or set-up's time is
multiplied by REF_MS over the kernel's mean time there.  Every task's
simulated outputs are digested and checked against
perfbench/golden.json (or, for seeds the golden does not cover,
against the task's own earlier repetitions); a mismatch makes the run
fail and the command exit 1.

--write-golden regenerates golden.json from the current build.  Only
do that for a change that is meant to alter simulated outputs.
"""

import argparse
import concurrent.futures
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import selftime  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
GOLDEN = os.path.join(HERE, "golden.json")

WORKLOADS = ("characterize", "trr_bypass", "fleet", "fuzz")
# Workloads whose layer call runs MeasureFn callbacks (hammer layer).
MEASURE_WORKLOADS = ("characterize", "fleet")
GOLDEN_SEEDS = (1, 7)  # default and held-out
# Set-ups per run (fresh processes); setup_s is their median.  Cheap
# set-ups repeat while their time stays under the budget.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 15, 3.0
TASK_SEEDS = 64  # must match kTaskSeeds in driver.cc
REF_MS = 5.0  # nominal time of one reference sample (refKernel)


def die(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once and build the driver; quiet unless it fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("simulator sources (src/) not found next to perfbench/")
    if shutil.which("cmake") is None:
        die("cmake not found")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            gen = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", HERE, "-B", BUILD, *gen,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "--target",
                      "perfbench_driver", "-j", "4"])
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=log) != 0:
                die("build failed; see " + log_path)


def drive(workload, seed, seconds, trace, size, run_dir, tag, extra=()):
    """Run the driver once; its stderr goes to a per-run log file."""
    out = os.path.join(run_dir, tag + ".json")
    log = os.path.join(run_dir, tag + ".log")
    cmd = [DRIVER, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%d" % seconds, "--trace=%d" % trace,
           "--size=" + size, "--out=" + out, *extra]
    with open(log, "w") as err:
        rc = subprocess.call(cmd, stdout=subprocess.DEVNULL, stderr=err)
    if rc != 0:
        with open(log) as f:
            tail = f.read()[-2000:]
        die("driver exited %d (%s):\n%s" % (rc, " ".join(cmd), tail))
    with open(out) as f:
        doc = json.load(f)
    with open(log) as f:
        doc["warnings"] = sum(1 for line in f if line.startswith("warn:"))
    return doc


def load_golden(size):
    if not os.path.isfile(GOLDEN):
        die("golden digests missing: " + GOLDEN)
    with open(GOLDEN) as f:
        return json.load(f)["sizes"][size]


class Checker:
    """Counts every digested task and every mismatch."""

    def __init__(self, golden, workload, seed):
        self.golden = golden[workload]
        self.seed = seed
        self.seen = {}
        self.attempted = 0
        self.failed = 0

    def expect(self, ok):
        self.attempted += 1
        self.failed += 0 if ok else 1

    def warmup(self, doc):
        w = doc["warmup"]
        self.expect(self.golden[str(w["golden_seed"])][w["index"]] ==
                    w["digest"])

    def task(self, index, task):
        want = self.golden.get(str(self.seed))
        if want is not None:
            self.expect(want[index % TASK_SEEDS] == task["digest"])
        else:
            first = self.seen.setdefault(task["seed"], task["digest"])
            self.expect(first == task["digest"])


def median(xs):
    return statistics.median(xs) if xs else 0.0


def speed(samples):
    """Host speed factor: nominal over mean reference time.  The mean,
    not the median: the host takes a vCPU away in bursts that hit few
    5 ms samples but every longer task."""
    return REF_MS / statistics.mean(samples)


def setup_time(doc):
    """The process's set-up time at the nominal host speed."""
    return doc["setup_s"] * speed(doc["setup_ref_ms"])


def end_to_end(doc, setups):
    tasks = doc["phases"][0]["tasks"]
    k = [speed(t["ref_ms"]) for t in tasks]
    return {
        "task_ms": (median([f * t["ms"] for f, t in zip(k, tasks)]), "ms"),
        "units_per_s": (median([1e3 * t["units"] / (f * t["ms"])
                                for f, t in zip(k, tasks)]), "1/s"),
        "cpu_ms": (median([f * t["cpu_ms"] for f, t in zip(k, tasks)]),
                   "ms"),
        "peak_rss_mib": (doc["peak_rss_kib"] / 1024.0, "MiB"),
        "setup_s": (median(setups), "s"),
    }


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(doc, workload, trace_path):
    plain, traced = doc["phases"]
    tasks = traced["tasks"]

    def per_task(key):
        # Exact counts come from the first traced task: its seed is
        # fixed by --seed, so they repeat run after run.
        return tasks[0]["facts"].get(key, 0)

    spans = doc["spans"]
    trace = selftime.read_trace(trace_path)
    self_ms, span_ms = selftime.attribute(
        spans, trace, len(tasks), workload in MEASURE_WORKLOADS)

    m = {}
    # hammer
    searches = [1e3 * (s[5] - s[4]) for s in spans if s[0] == "measure"]
    m["hammer.search_ms"] = (median(searches), "ms")
    m["hammer.searches"] = (per_task("obs.hammer.hc_searches"), "count")
    m["hammer.probes_per_search"] = (
        ratio(per_task("obs.hammer.hc_probes"),
              per_task("obs.hammer.hc_searches")), "count")
    for arm in ("none", "trr", "para"):
        cells = [1e3 * (s[5] - s[4]) for s in spans
                 if s[0] == "call" and s[1] == arm]
        m["hammer.trr_cell_ms." + arm] = (median(cells), "ms")
    # bender
    m["bender.programs"] = (per_task("obs.executor.programs"), "count")
    m["bender.replayed_iters"] = (
        per_task("obs.executor.fastpath_iterations"), "count")
    m["bender.naive_fallbacks"] = (
        per_task("obs.executor.naive_fallbacks"), "count")
    m["bender.phase_breaks"] = (per_task("obs.executor.phase_breaks"),
                                "count")
    # The counter misses loops that give up re-recording ("strikes");
    # the trace's naive_fallback events include them.
    m["bender.naive_fallback_events"] = (
        doc["trace_events"].get("naive_fallback", 0) / len(tasks), "count")
    hits = per_task("obs.executor.plan_cache_hits")
    misses = per_task("obs.executor.plan_cache_misses")
    m["bender.plan_lookups"] = (hits + misses, "count")
    m["bender.plan_miss_ratio"] = (ratio(misses, hits + misses), "ratio")
    prog_s = sum(p[1] for p in trace["programs"])
    m["bender.us_per_program"] = (
        ratio(1e6 * prog_s, len(trace["programs"])), "us")
    # dram
    for key in ("acts", "simra_ops", "comra_copies", "trr_refreshes"):
        m["dram." + key] = (per_task("dram." + key), "count")
    acts_all = sum(t["facts"].get("dram.acts", 0) for t in tasks)
    m["dram.host_ns_per_act"] = (ratio(1e9 * prog_s, acts_all), "ns")
    m["dram.populated_rows_max"] = (
        max(t["facts"].get("dram.populated_rows_max", 0) for t in tasks),
        "rows")
    # exec
    m["exec.busy_ratio"] = (
        median([ratio(t["cpu_ms"], t["ms"] * doc["jobs"])
                for t in plain["tasks"]]),  # the trace tap costs CPU
        "ratio")
    m["exec.shard_max_over_median"] = (
        median([t["facts"].get("exec.shard_max_over_median", 0)
                for t in tasks]), "ratio")
    # fuzz
    gen = per_task("fuzz.generated")
    unique = per_task("fuzz.unique")
    executed = per_task("fuzz.executed")
    m["fuzz.generated"] = (gen, "count")
    m["fuzz.unique"] = (unique, "count")
    m["fuzz.executed"] = (executed, "count")
    m["fuzz.dedup_ratio"] = (ratio(per_task("fuzz.dedup_hits"), gen),
                             "ratio")
    m["fuzz.static_skip_ratio"] = (
        ratio(per_task("fuzz.static_skips"), unique), "ratio")
    m["fuzz.effective_ratio"] = (ratio(per_task("fuzz.effective"),
                                       executed), "ratio")
    m["fuzz.exec_share"] = (
        ratio(self_ms["program"], self_ms["program"] + self_ms["call"])
        if workload == "fuzz" else 0.0, "ratio")
    # obs
    # Both phases start at task index 0, so pair tasks of equal seed.
    m["obs.trace_overhead"] = (
        median([ratio(t["ms"], p["ms"])
                for t, p in zip(tasks, plain["tasks"])]), "ratio")
    m["obs.warnings"] = (doc["warnings"], "count")
    m["obs.trace_events"] = (
        sum(doc["trace_events"].values()) / len(tasks), "count")
    # host: the raw inputs of the end-to-end scaling
    m["host.ref_ms"] = (
        median([x for t in plain["tasks"] for x in t["ref_ms"]]), "ms")
    m["host.task_wall_ms"] = (median([t["ms"] for t in plain["tasks"]]),
                              "ms")
    # self time per layer, per task; the layers add up to the task span
    for layer in selftime.LAYERS:
        m["self_ms." + layer] = (self_ms[layer], "ms")
    m["self_ms.task_span"] = (span_ms, "ms")
    additive = abs(sum(self_ms.values()) - span_ms) <= 1e-6 * span_ms
    return m, additive


def write_golden(seconds):
    golden = {"task_seeds": TASK_SEEDS, "seeds": list(GOLDEN_SEEDS),
              "sizes": {}}
    run_dir = os.path.join(BUILD, "runs", "golden")
    os.makedirs(run_dir, exist_ok=True)
    jobs = [(size, w, seed) for size in ("normal", "tiny")
            for w in WORKLOADS for seed in GOLDEN_SEEDS]

    def digests(job):
        size, w, seed = job
        return drive(w, seed, seconds, 0, size, run_dir,
                     "%s-%s-%d" % job, ["--digests"])["digests"]

    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        for (size, w, seed), d in zip(jobs, pool.map(digests, jobs)):
            golden["sizes"].setdefault(size, {}).setdefault(w, {})[
                str(seed)] = d
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print("wrote " + GOLDEN)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("normal", "tiny"), default="normal")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1:
        die("--seconds must be >= 1")

    build()
    if args.write_golden:
        write_golden(args.seconds)
        return 0
    if args.workload is None:
        die("--workload is required")

    golden = load_golden(args.size)
    run_dir = os.path.join(BUILD, "runs", "%s-%s-s%d-t%d" % (
        args.size, args.workload, args.seed, args.trace))
    os.makedirs(run_dir, exist_ok=True)
    check = Checker(golden, args.workload, args.seed)

    setups = []
    spent = 0.0
    # The measured run's own set-up is the last one.
    while len(setups) < MIN_SETUPS - 1 or (
            len(setups) < MAX_SETUPS - 1 and spent < SETUP_BUDGET_S):
        doc = drive(args.workload, args.seed, args.seconds, 0, args.size,
                    run_dir, "setup%d" % len(setups), ["--setup-only"])
        check.warmup(doc)
        setups.append(setup_time(doc))
        spent += doc["setup_s"]

    trace_path = os.path.join(run_dir, "trace.jsonl")
    extra = ["--trace-file=" + trace_path] if args.trace else []
    doc = drive(args.workload, args.seed, args.seconds, args.trace,
                args.size, run_dir, "run", extra)
    check.warmup(doc)
    setups.append(setup_time(doc))
    for ph in doc["phases"]:
        for i, t in enumerate(ph["tasks"]):
            check.task(i, t)

    correct = True
    if args.trace:
        metrics, correct = per_layer(doc, args.workload, trace_path)
        os.remove(trace_path)  # large; the metrics are what is kept
    else:
        metrics = end_to_end(doc, setups)
    correct = correct and check.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
