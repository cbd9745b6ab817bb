#!/usr/bin/env python3
"""Build and run one workload of the PMTest benchmark.

    python3 perfbench/run.py --workload pmdk-live --seed 1 --seconds 10 --trace 0

Run it from the root of a PMTest checkout.  It builds the benchmark and
the daemon binary from source with dune, runs the workload and passes
its output through; the last line is the JSON result.  The exit code is
the benchmark's (1 when a verdict was wrong), or 2 when the checkout
cannot be built or the result does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

RUN_DIR = ".perfbench_run"
BENCH_EXE = "_build/default/perfbench/bench.exe"
CLI_EXE = "_build/default/bin/pmtest_cli.exe"
SOURCE_DIRS = ["lib", "bin", "perfbench"]


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def source_digest():
    """SHA-256 over the sources, so a result names the code it measured
    even where there is no git history."""
    h = hashlib.sha256()
    for top in SOURCE_DIRS:
        for d, subdirs, files in os.walk(top):
            subdirs.sort()
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(p.encode())
                    with open(p, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(".git"):
        return "none"
    r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def run(cmd, env, timeout, stdout):
    """Run in its own process group, so a timeout also stops the daemon."""
    p = subprocess.Popen(cmd, env=env, stdout=stdout, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail("%s timed out after %d s" % (cmd[0], timeout))
    return p.returncode, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of a PMTest checkout (no dune-project or lib/ here)")
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload %r" % a.workload)

    env = dict(os.environ, DUNE_CACHE="disabled")
    code, _ = run(["dune", "build", "--root", ".", "-j", "2", "perfbench/bench.exe",
                   "bin/pmtest_cli.exe"], env, 850, sys.stderr)
    if code != 0:
        fail("build failed")
    # The fuzz pair engine/serve puts its daemon socket in TMPDIR; keep it
    # inside the checkout, and relative, as socket paths are short.
    os.makedirs(RUN_DIR, exist_ok=True)
    env["TMPDIR"] = RUN_DIR

    cmd = [BENCH_EXE, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace), "--cli", CLI_EXE,
           "--run-dir", RUN_DIR, "--rev", git_rev(), "--source-digest", source_digest()]
    code, out = run(cmd, env, 170, subprocess.PIPE)
    lines = out.decode().strip().splitlines()
    if code not in (0, 1) or not lines:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("benchmark exited with code %d" % code)
    result = json.loads(lines[-1])
    declared = {m["name"] for m in spec["per_layer" if a.trace else "end_to_end"]}
    if set(result["metrics"]) != declared:
        sys.stderr.write("\n".join(lines) + "\n")
        fail("metrics %s differ from BENCHMARK.json %s"
             % (sorted(result["metrics"]), sorted(declared)))
    print("\n".join(lines), flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
