#!/usr/bin/env python3
"""Build and run the psnap benchmark for one workload; print one result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which compiles the psnap libraries from src/) under
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that is unset.
Set-up is measured in several processes, and its CPU time and peak memory
are reported as their medians; the last process then measures the
workload for S seconds. The last stdout line is
the result: {"correct", "attempted", "failed", "metrics"}; the line before
it records the host and the checks behind `correct`. See README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

SETUP_ONLY_RUNS = 4
PROCESS_TIMEOUT_S = 150

# Layers a workload never calls into report 0 for their per-layer metrics.
NOT_EXERCISED = {
    "wordcount_batch": ("serve.", "scenarios.", "supervise.", "ckpt.",
                        "persist.save_ms"),
    "classroom": ("persist.open_ms", "blocks.clone_in_ms", "native.map_ms",
                  "mapreduce.", "vm."),
}


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def run_once(binary, args, work_dir, env, setup_only):
    """Run the binary once in a fresh work directory; return its report."""
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, env=env,
                              timeout=PROCESS_TIMEOUT_S, text=True)
    finally:
        # Keep the Chrome traces of a traced run beside the work directory.
        for name in ("trace.json", "trace-ckpt.json"):
            trace = os.path.join(work_dir, name)
            if os.path.exists(trace):
                stem = name[:-len(".json")]
                os.replace(trace, os.path.join(
                    os.path.dirname(work_dir),
                    f"{stem}-{args.workload}-seed{args.seed}.json"))
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited with {done.returncode}")
    return json.loads(lines[-1])


def git_head(root):
    """The checkout's commit; git must not answer for an enclosing repo."""
    try:
        done = subprocess.run(
            ["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=10)
        lines = done.stdout.split()
        if (done.returncode == 0 and len(lines) == 2
                and os.path.samefile(lines[0], root)):
            return lines[1]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.exists(os.path.join(root, "src", "CMakeLists.txt")):
        log("run from the repository root: src/CMakeLists.txt is missing")
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload!r}")
        return 2

    base = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(root, os.path.join(base, "perfbench"))
    scratch = os.path.join(base, "perfbench-run")
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The native tier compiles kernels under $TMPDIR; keep them in the
    # checkout.
    env = dict(os.environ, TMPDIR=tmp)
    work_dir = os.path.join(scratch, f"work-{os.getpid()}")

    reports = [run_once(binary, args, work_dir, env, setup_only=True)
               for _ in range(SETUP_ONLY_RUNS)]
    main_report = run_once(binary, args, work_dir, env, setup_only=False)
    reports.append(main_report)
    setups = [r["metrics"]["setup_s"]["value"] for r in reports]
    rss = [r["metrics"]["peak_rss_mb"]["value"] for r in reports]

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    checks = {}
    for r in reports:
        for name, ok in r["checks"].items():
            checks[name] = checks.get(name, True) and ok

    measured = dict(main_report["metrics"])
    measured["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    measured["peak_rss_mb"] = {"value": statistics.median(rss), "unit": "MB"}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for entry in wanted:
        name = entry["name"]
        if name in measured:
            metrics[name] = measured[name]
        elif name.startswith(NOT_EXERCISED[args.workload]):
            metrics[name] = {"value": 0, "unit": entry["unit"]}
        else:
            missing.append(name)
    checks["every_metric_reported"] = not missing
    if missing:
        log(f"metrics not reported: {', '.join(missing)}")
    failed_checks = [name for name, ok in checks.items() if not ok]
    if failed_checks:
        log(f"checks failed: {', '.join(failed_checks)}")
    correct = not failed_checks and failed == 0

    meta = dict(main_report["meta"], git_head=git_head(root),
                setup_s_samples=setups, peak_rss_mb_samples=rss,
                checks=checks)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
