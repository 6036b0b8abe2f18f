#!/usr/bin/env python3
"""Builds the benchmark and the stage-serve daemon from source, then runs
one workload.

    python3 perfbench/run.py --workload sweep|admit|mixed --seed N \
        --seconds S --trace 0|1

Run it from the root of a source tree. Builds go to $CARGO_TARGET_DIR
(default: .bench_build). Daemon data directories live in a temporary
directory under the build directory, removed on exit. The benchmark runs
in its own process group, which is killed on exit, so no stage-serve
outlives it. The last line of standard output is the JSON result; it
must name exactly the metrics BENCHMARK.json lists for the mode
(end_to_end for --trace 0, per_layer for --trace 1), in their units, or
the run fails without a result.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    commands = [
        # The daemon, from the repository's own workspace.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"),
         "-p", "dstage-service", "--bin", "stage-serve"],
        # The benchmark, a workspace of its own.
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for command in commands:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(command, env=env, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(command))


def check_result(line, trace):
    """Returns why `line` is not a result line that BENCHMARK.json
    accepts for `trace`, or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    try:
        result = json.loads(line)
    except ValueError:
        return "the last line is not JSON"
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        return "the result line's keys are not correct/attempted/failed/metrics"
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != wanted:
        return "metrics differ from BENCHMARK.json: missing %s, extra %s, units %s" % (
            sorted(set(wanted) - set(got)), sorted(set(got) - set(wanted)),
            sorted(n for n in set(got) & set(wanted) if got[n] != wanted[n]))
    return None


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no Cargo.toml at %s; run from a source tree" % ROOT)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.makedirs(target, exist_ok=True)
    build(target)
    work = tempfile.mkdtemp(prefix="perfbench-", dir=target)
    command = [os.path.join(target, "release", "perfbench"), *sys.argv[1:],
               "--serve", os.path.join(target, "release", "stage-serve"),
               "--work", work]
    trace = sys.argv[sys.argv.index("--trace") + 1] if "--trace" in sys.argv[:-1] else None
    child = subprocess.Popen(command, start_new_session=True, stdout=subprocess.PIPE,
                             text=True)
    # A termination signal unwinds through the cleanup below.
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, lambda signum, frame: sys.exit(128 + signum))
    try:
        output = child.stdout.read()
        code = child.wait()
    finally:
        # Whatever happened, take the whole group down: the benchmark and
        # any daemon it started.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        if child.poll() is None:
            child.wait()
        shutil.rmtree(work, ignore_errors=True)
    lines = output.splitlines()
    if code == 0:
        problem = check_result(lines[-1], trace) if lines else "no result line"
        if problem:
            sys.exit("perfbench: " + problem)
    sys.stdout.write(output)
    sys.exit(code)


if __name__ == "__main__":
    main()
