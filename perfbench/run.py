#!/usr/bin/env python3
"""Build the benchmark driver from this checkout's sources and run it.

One workload (the last stdout line is the result JSON):
    python3 perfbench/run.py --workload kv_spill --seed 1 --seconds 10 --trace 0

Every workload, untraced then traced; exits nonzero if any run failed or
found a correctness mismatch:
    python3 perfbench/run.py --all [--seed 1] [--seconds 10]

The driver is built with CMake under .bench_build/ at the checkout root;
its database files live in a per-run directory there that is removed when
the run ends. Traced runs leave a span dump in .bench_build/spans/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD / "perfbench_driver"
WORKLOADS = ["kv_spill", "sql_fit", "txn_mixed", "repl_ship"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool bring the driver up to date."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no product sources at {ROOT / 'src'}; cannot build the driver")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench_driver", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return DRIVER.is_file()


def check_result(line, trace):
    """The result line must be the JSON object the benchmark contract names."""
    try:
        res = json.loads(line)
    except ValueError:
        return "last stdout line is not JSON"
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys differ from correct/attempted/failed/metrics"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in want}
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != units:
        return f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(units))}"
    if res["correct"] is not True or res["attempted"] < 1:
        return "result does not report a correct run"
    return None


def run_one(workload, seed, seconds, trace, extra=()):
    """Runs the driver once; returns (exit code, stdout)."""
    work = ROOT / ".bench_build" / "work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(DRIVER), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--dir", str(work)]
    if trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}-seed{seed}.json")]
    cmd += list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        log(f"{workload}: driver did not finish within {RUN_TIMEOUT_S} s")
        return 1, out
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.all == (args.workload is not None):
        ap.error("give exactly one of --workload and --all")
    if not build():
        return 1

    if args.workload:
        code, out = run_one(args.workload, args.seed, args.seconds, args.trace)
        lines = out.rstrip("\n").split("\n")
        if code != 0:
            # Keep the human lines, never a result line, on failure.
            sys.stdout.write("".join(l + "\n" for l in lines
                                     if not l.startswith("{")))
            log(f"{args.workload}: driver exited with {code}")
            return code
        problem = check_result(lines[-1], args.trace)
        if problem:
            sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
            log(f"{args.workload}: {problem}")
            return 1
        sys.stdout.write(out)
        return 0

    worst = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, out = run_one(workload, args.seed, args.seconds, trace)
            sys.stdout.write("".join(l + "\n" for l in out.splitlines()
                                     if not l.startswith("{")))
            if code != 0:
                log(f"{workload} (trace {trace}): driver exited with {code}")
                worst = worst or code
                break
    return worst


if __name__ == "__main__":
    sys.exit(main())
