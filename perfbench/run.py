#!/usr/bin/env python3
"""Run one vHadoop benchmark workload and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and builds
perfbench/ (Release) into .bench_build/perfbench; later calls rebuild
incrementally. The build log goes to stderr.

Standard output ends with three parts: a human-readable table, one
`report` JSON line with every metric the workload measured (units, seed,
checks, machine stamp), and, as the last line, the result object with the
metrics BENCHMARK.json names: its `end_to_end` list with --trace 0, its
`per_layer` list with --trace 1.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")
BINARY = os.path.join(BUILD_DIR, "vhbench")
WORKLOADS = ["sim-scale-512", "sim-tenant-day", "local-wordcount", "ml-paper-clustering"]
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no vHadoop sources at {os.path.join(ROOT, 'src')}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("configure failed")
    jobs = str(len(os.sched_getaffinity(0)))
    if subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], stdout=sys.stderr).returncode:
        fail("build failed")


def machine(build_info):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, **build_info}


def run_workload(args):
    """Run vhbench once; returns (exit status, report dict or None, peak RSS in MiB)."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-dir", SPANS_DIR] + (["--tiny"] if args.tiny else []) + \
          (["--corrupt"] if args.corrupt else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, lambda: os.kill(proc.pid, signal.SIGKILL))
    timer.start()
    try:
        out = proc.stdout.read()
        # wait4 reaps the child and gives its own peak RSS (KiB on Linux),
        # excluding the compiler processes of the build.
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = [line for line in out.splitlines() if line.startswith("{")]
    report = json.loads(lines[-1]) if lines else None
    return proc.returncode, report, usage.ru_maxrss / 1024.0


def print_table(report):
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
          f"iterations {report['iterations']}+{report['traced_iterations']}  "
          f"correct {report['correct']}")
    for section in ("metrics", "layers"):
        for name, m in report[section].items():
            print(f"  {section[:-1]:7s} {name:34s} {m['value']:>18.6g} {m['unit']}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tiny", action="store_true", help="test-sized inputs")
    parser.add_argument("--corrupt", action="store_true",
                        help="tamper with one result before it is checked")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    build()

    status, report, peak_rss_mb = run_workload(args)
    if report is None:
        fail(f"vhbench exited with status {status} and no report", code=1)
    report["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MiB"}
    report["machine"] = machine(report.pop("build"))
    print_table(report)
    print(json.dumps({"report": report}))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = report["layers"] if args.trace else report["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in source]
    if missing:
        fail(f"workload did not report {', '.join(missing)}", code=1)
    correct = status == 0 and report["correct"]
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": source[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
