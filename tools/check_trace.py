#!/usr/bin/env python3
"""Schema validator for pud::obs JSONL traces.

Checks, line by line:
  - every line parses as a flat JSON object,
  - `ev` is a known event type and every required field is present
    with the right JSON type,
  - `ts` is monotonically non-decreasing in file order (the writer
    reads the clock under the same lock that serializes lines),
  - the first event is `trace_open` and (unless --allow-truncated)
    the last is `trace_close`.

Exits 0 when the trace is valid, 1 with a line-numbered diagnostic
otherwise.

Usage:
    check_trace.py TRACE.jsonl [--allow-truncated]
"""

import argparse
import json
import sys

NUM = (int, float)

# Required fields per event type: name -> JSON type(s).
SCHEMA = {
    "trace_open": {},
    "trace_close": {"wall_s": NUM},
    "program_start": {"insts": int},
    "program_end": {
        "device_ns": int,
        "wall_s": NUM,
        "reads": int,
        "fastpath_iters": int,
    },
    "fastpath_record": {"loop": int, "it": int, "quiescent": bool},
    "fastpath_replay": {"loop": int, "replayed": int, "remaining": int},
    "phase_break": {"loop": int, "it": int},
    "naive_fallback": {"loop": int, "trip": int, "reason": str},
    "trr_evict": {"bank": int, "evicted": int, "row": int},
    "ref_anchor": {"slot": int, "start": int, "end": int,
                   "recording": bool},
    "trr_refresh": {"bank": int, "aggr": int, "victim": int},
    "parallel_for": {"jobs": int, "units": int, "wall_s": NUM},
    "sweep_start": {"module_id": str, "modules": int, "victims": int,
                    "measures": int, "shards": int, "jobs": int},
    "work_unit": {"module": int, "first_slot": int, "victims": int,
                  "units": int, "seconds": NUM, "fastpath_iters": int,
                  "plan_hits": int, "plan_misses": int},
    "sweep_end": {"wall_s": NUM, "units": int, "shards": int},
    "hc_probe": {"phase": str, "hammers": int, "flipped": bool,
                 "lo": int, "hi": int},
    "hc_result": {"found": bool, "hc": int},
}

NAIVE_REASONS = {"body-class", "cost-model", "strikes"}
HC_PHASES = {"ramp", "bisect"}


def check(path, allow_truncated):
    errors = []
    last_ts = None
    first_ev = None
    last_ev = None
    n = 0

    def err(lineno, msg):
        errors.append("%s:%d: %s" % (path, lineno, msg))

    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                err(lineno, "blank line")
                continue
            n += 1
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                err(lineno, "invalid JSON: %s" % e)
                continue
            if not isinstance(obj, dict):
                err(lineno, "not a JSON object")
                continue

            ev = obj.get("ev")
            if first_ev is None:
                first_ev = ev
            last_ev = ev
            if ev not in SCHEMA:
                err(lineno, "unknown event type %r" % (ev,))
                continue

            ts = obj.get("ts")
            if not isinstance(ts, NUM) or isinstance(ts, bool):
                err(lineno, "missing/non-numeric ts")
            else:
                if last_ts is not None and ts < last_ts:
                    err(lineno,
                        "ts went backwards (%.6f after %.6f)"
                        % (ts, last_ts))
                last_ts = ts

            for field, want in SCHEMA[ev].items():
                if field not in obj:
                    err(lineno, "%s missing field %r" % (ev, field))
                    continue
                val = obj[field]
                # bool is an int subclass in Python; keep them apart.
                if want is int and (isinstance(val, bool)
                                    or not isinstance(val, int)):
                    err(lineno, "%s.%s: expected integer, got %r"
                        % (ev, field, val))
                elif want is bool and not isinstance(val, bool):
                    err(lineno, "%s.%s: expected bool, got %r"
                        % (ev, field, val))
                elif want is str and not isinstance(val, str):
                    err(lineno, "%s.%s: expected string, got %r"
                        % (ev, field, val))
                elif want is NUM and (isinstance(val, bool)
                                      or not isinstance(val, NUM)):
                    err(lineno, "%s.%s: expected number, got %r"
                        % (ev, field, val))

            if ev == "naive_fallback" and \
                    obj.get("reason") not in NAIVE_REASONS:
                err(lineno, "naive_fallback.reason %r not in %s"
                    % (obj.get("reason"), sorted(NAIVE_REASONS)))
            if ev == "hc_probe" and obj.get("phase") not in HC_PHASES:
                err(lineno, "hc_probe.phase %r not in %s"
                    % (obj.get("phase"), sorted(HC_PHASES)))

    if n == 0:
        errors.append("%s: empty trace" % path)
    else:
        if first_ev != "trace_open":
            errors.append("%s: first event is %r, expected trace_open"
                          % (path, first_ev))
        if last_ev != "trace_close" and not allow_truncated:
            errors.append("%s: last event is %r, expected trace_close"
                          % (path, last_ev))
    return n, errors


def main():
    ap = argparse.ArgumentParser(
        description="validate a pud::obs JSONL trace")
    ap.add_argument("trace", help="path to the .jsonl trace")
    ap.add_argument("--allow-truncated", action="store_true",
                    help="accept a trace without a final trace_close")
    args = ap.parse_args()

    n, errors = check(args.trace, args.allow_truncated)
    if errors:
        for e in errors[:50]:
            print(e, file=sys.stderr)
        if len(errors) > 50:
            print("... and %d more" % (len(errors) - 50),
                  file=sys.stderr)
        print("FAIL: %s: %d error(s) in %d event(s)"
              % (args.trace, len(errors), n), file=sys.stderr)
        return 1
    print("OK: %s: %d schema-valid events" % (args.trace, n))
    return 0


if __name__ == "__main__":
    sys.exit(main())
