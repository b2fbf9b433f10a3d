"""Per-layer self time from the traced run.

Inputs are the driver's in-memory spans (task -> build / layer call ->
MeasureFn) and two event types of the program's own pud::obs trace:
`program_end` (one executor program, with its wall_s) and
`parallel_for` (a pool batch, with its wall_s and jobs).  Neither the
trace nor the spans name the thread a program ran on, so the sweep
below works with counts: at each instant the active leaf spans share
the instant equally.  The lanes are the driver's main thread, or the
pool's workers while a parallel_for batch runs.  A program is always
the innermost span on its lane; a lane inside the layer call but in no
MeasureFn or program counts as the layer call's own time.  The shares
of every instant add up to one, so the layer self times add up to the
task span exactly, for any number of jobs.
"""

import json

LAYERS = ("task", "build", "call", "measure", "program")


def read_trace(path):
    """Program and parallel_for intervals as (start, end[, lanes])."""
    programs, batches = [], []
    with open(path) as f:
        for line in f:
            if '"ev":"program_end"' in line:
                ev = json.loads(line)
                programs.append((ev["ts"] - ev["wall_s"], ev["wall_s"]))
            elif '"ev":"parallel_for"' in line:
                ev = json.loads(line)
                lanes = min(ev["jobs"], ev["units"])
                batches.append((ev["ts"] - ev["wall_s"], ev["ts"],
                                max(1, lanes)))
    return {"programs": programs, "batches": batches}


def attribute(spans, trace, ntasks, has_measure):
    """Mean self ms per task for each layer, and the mean task span.

    `spans` rows are [layer, tag, parent, lane, begin, end].
    """
    events = []
    for s in spans:
        events.append((s[4], 1, s[0], 1))
        events.append((s[5], -1, s[0], 1))
    for start, wall in trace["programs"]:
        events.append((start, 1, "program", 1))
        events.append((start + wall, -1, "program", 1))
    for start, end, lanes in trace["batches"]:
        events.append((start, 1, "batch", lanes))
        events.append((end, -1, "batch", lanes))
    events.sort(key=lambda e: (e[0], e[1]))

    count = {k: 0 for k in LAYERS + ("batch",)}
    lanes = 1
    self_s = {k: 0.0 for k in LAYERS}
    span_s = 0.0
    prev = None
    for t, delta, kind, width in events:
        if prev is not None and count["task"] > 0 and t > prev:
            dt = t - prev
            span_s += dt
            if count["build"] > 0:
                self_s["build"] += dt
            elif count["call"] == 0:
                self_s["task"] += dt
            else:
                width_now = lanes if count["batch"] > 0 else 1
                m, p = count["measure"], count["program"]
                if has_measure:
                    w = max(width_now, m)
                    prog = min(p, m)
                    meas = m - prog
                else:
                    w = max(width_now, p)
                    prog, meas = p, 0
                self_s["program"] += dt * prog / w
                self_s["measure"] += dt * meas / w
                self_s["call"] += dt * (w - prog - meas) / w
        prev = t
        count[kind] += delta
        if kind == "batch" and delta > 0:
            lanes = width
    n = max(1, ntasks)
    return ({k: 1e3 * v / n for k, v in self_s.items()},
            1e3 * span_s / n)
