#!/usr/bin/env python3
"""Quick self-test of the benchmark: every workload at the tiny size.

    python3 perfbench/selftest.py

For each workload it runs run.py untraced and traced on the golden seed
and untraced on the held-out seed, and checks that the run succeeds,
that every task digest matches golden.json (run.py's own check), and
that every metric BENCHMARK.json names is emitted with its unit.
Takes about a minute after the driver is built.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for seed, trace in ((1, 0), (1, 1), (7, 0)):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", w, "--seed", str(seed), "--seconds", "1",
                   "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            what = "%s seed=%d trace=%d" % (w, seed, trace)
            before = len(problems)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append("%s: exit %d\n%s" % (
                    what, proc.returncode, proc.stderr[-1000:]))
                print("FAIL", what, flush=True)
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                problems.append("%s: not correct, %d of %d digests differ"
                                % (what, result["failed"],
                                   result["attempted"]))
            got = result["metrics"]
            for name, unit in wanted[trace].items():
                if name not in got:
                    problems.append("%s: metric %s missing" % (what, name))
                elif got[name]["unit"] != unit:
                    problems.append("%s: %s has unit %s, not %s" % (
                        what, name, got[name]["unit"], unit))
            extra = set(got) - set(wanted[trace])
            if extra:
                problems.append("%s: unlisted metrics %s" % (
                    what, sorted(extra)))
            print("ok  " if len(problems) == before else "FAIL", what,
                  flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
