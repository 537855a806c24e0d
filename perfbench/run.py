#!/usr/bin/env python3
"""Build and run the fig-2 federation benchmark (perfbench/).

Run from the repository root:

  python3 perfbench/run.py --workload tree_xml --seed 1 --seconds 20 --trace 0
      one run; the last line of standard output is the JSON result
  python3 perfbench/run.py steady
      steadiness: every workload ten times with seeds 1..10, each run as
      long as BENCHMARK.json's run_seconds, then the median, quartiles,
      min/max and spread of each end-to-end metric, and one traced run per
      workload for the tracing overhead
  python3 perfbench/run.py selftest
      the harness self-test at tiny scale

The program is compiled from ../src with perfbench/CMakeLists.txt into the
build directory: $CARGO_TARGET_DIR when set, else .bench_build.  Build
output goes to standard error.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tree_xml", "tree_delta", "dashboard", "membership"]


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configure (once) and build; returns the benchmark binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "gmetad", "gmetad.hpp")):
        sys.exit("perfbench: no program sources at %s" % os.path.join(ROOT, "src"))
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "fedbench")


def run_once(binary, workload, seed, seconds, trace, echo):
    """One benchmark run; returns (exit code, parsed JSON result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if str(trace) == "1":
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-dir", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result


def steady():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    runs, seconds = 10, spec["run_seconds"]
    binary = build()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    print("nproc %d, %d runs per workload, %s s each" %
          (os.cpu_count() or 0, runs, seconds))
    bad = 0
    for workload in WORKLOADS:
        values, shares = {}, set()
        for seed in range(1, runs + 1):
            code, result = run_once(binary, workload, seed, seconds, 0, False)
            if code != 0 or result is None or not result["correct"]:
                print("%s seed %d: FAILED (exit %d)" % (workload, seed, code))
                bad += 1
                continue
            shares.add(result["failed"] / result["attempted"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("\n%s  (failed share per run: %s)" %
              (workload, ", ".join("%g" % s for s in sorted(shares))))
        print("  %-22s %12s %12s %12s %12s %12s %8s %6s" %
              ("metric", "median", "q1", "q3", "min", "max", "spread", "bound"))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  > bound/3"
            print("  %-22s %12.4f %12.4f %12.4f %12.4f %12.4f %8.4f %6s%s" %
                  (name, med, q1, q3, min(vals), max(vals), spread,
                   "" if bound is None else "%.2f" % bound, flag))
        code, traced = run_once(binary, workload, 1, seconds, 1, False)
        if traced is not None and "round_cpu_ms" in values:
            t = traced["metrics"]
            print("  tracing: traced round_cpu_ms %.3f (overhead within the "
                  "traced run %.3f ms); untraced median %.3f ms; difference "
                  "%.3f ms" % (t["trace.round_cpu_ms"]["value"],
                               t["trace.overhead_ms"]["value"],
                               statistics.median(values["round_cpu_ms"]),
                               t["trace.round_cpu_ms"]["value"] -
                               statistics.median(values["round_cpu_ms"])))
    return 1 if bad else 0


def main(argv):
    if argv == ["steady"]:
        return steady()
    if argv and argv[0] == "selftest":
        return subprocess.run([build(), "--selftest"]).returncode
    opts = {}
    it = iter(argv)
    for arg in it:
        if arg in ("--workload", "--seed", "--seconds", "--trace"):
            opts[arg[2:]] = next(it, None)
        else:
            sys.exit("usage: run.py --workload W --seed N --seconds S --trace 0|1"
                     " | steady | selftest")
    if None in opts.values() or len(opts) != 4:
        sys.exit("usage: run.py --workload W --seed N --seconds S --trace 0|1")
    binary = build()
    code, _ = run_once(binary, opts["workload"], opts["seed"], opts["seconds"],
                       opts["trace"], True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
