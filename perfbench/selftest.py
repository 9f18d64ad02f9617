#!/usr/bin/env python3
"""Self-check of the benchmark itself.

    python3 perfbench/selftest.py

1. A tiny run (--scale 0.02, 1 s) of every workload in BENCHMARK.json, untraced
   and traced, must exit 0 and print every metric BENCHMARK.json names, with
   its unit, both as a readable line and in the result JSON.
2. A run of every workload with a deliberately wrong expected value
   (--wrong-expect) must fail its correctness check: exit code 2 and no
   result line.

Exits 0 when every check holds, 1 otherwise.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

TINY = ["--scale", "0.02"]
EXIT_MISMATCH = 2


def check_tiny(workload, trace, spec):
    code, out = run.run_one(workload, 1, 1, trace, TINY)
    if code != 0:
        return f"exited with {code}"
    lines = out.splitlines()
    problem = run.check_result(lines[-1], trace)
    if problem:
        return problem
    for m in spec["per_layer" if trace else "end_to_end"]:
        if not any(l.split()[:1] == [m["name"]] and l.split()[-1] == m["unit"]
                   for l in lines[:-1]):
            return f"no readable line for {m['name']} [{m['unit']}]"
    return None


def check_wrong_expect(workload):
    code, out = run.run_one(workload, 1, 1, 0, TINY + ["--wrong-expect"])
    if code != EXIT_MISMATCH:
        return f"exit code {code}, want {EXIT_MISMATCH}"
    if any(l.startswith("{") for l in out.splitlines()):
        return "printed a result line"
    return None


def main():
    if not run.build():
        return 1
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for w in spec["workloads"]:
        for trace in (0, 1):
            problem = check_tiny(w["name"], trace, spec)
            print(f"{'FAIL' if problem else 'ok  '} tiny {w['name']} trace "
                  f"{trace}{': ' + problem if problem else ''}", flush=True)
            failures += bool(problem)
    for workload in run.WORKLOADS:
        problem = check_wrong_expect(workload)
        print(f"{'FAIL' if problem else 'ok  '} wrong-expect {workload}"
              f"{': ' + problem if problem else ''}", flush=True)
        failures += bool(problem)
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
