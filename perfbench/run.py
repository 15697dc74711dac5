#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
      One run of one workload. The last line of stdout is one JSON object
      with the keys correct, attempted, failed and metrics.

  python3 perfbench/run.py steady --workload NAME [--runs N] [--seconds S]
                                  [--seed-base B]
      Run a workload N times back to back, seeds B .. B+N-1, and print each
      metric's median, quartiles and (q3 - q1) / median.

  python3 perfbench/run.py selftest
      Check that every output check rejects a planted wrong answer.

The benchmark program is built from source with dune, under the `bench`
profile, into .bench_build/_build/. Scratch files and span traces go
under .bench_build/ too.
"""

import json
import os
import statistics
from fractions import Fraction
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "_build")
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "halobench.exe")
WORKLOADS = ["paper-suite", "serve-fleet", "fuzz-campaign", "traffic-drift"]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the repository root: %s not found" % need)
    os.makedirs(BUILD_DIR, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "bench",
             "--build-dir", os.path.abspath(BUILD_DIR),
             "./perfbench/halobench.exe"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            timeout=850,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build failed")


def run_exe(args, timeout):
    """Run the benchmark program; return (exit code, stdout lines)."""
    os.makedirs(".bench_build", exist_ok=True)
    proc = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc.returncode, out.decode(errors="replace").splitlines()


def parse_opts(argv):
    opts = {}
    it = iter(argv)
    for k in it:
        if not k.startswith("--"):
            fail("unexpected argument %r" % k)
        try:
            opts[k[2:]] = next(it)
        except StopIteration:
            fail("missing value for %s" % k)
    return opts


def one_run(argv):
    opts = parse_opts(argv)
    for k in ("workload", "seed", "seconds", "trace"):
        if k not in opts:
            fail("missing --%s" % k)
    if opts["workload"] not in WORKLOADS:
        fail("unknown workload %r; one of %s" % (opts["workload"], WORKLOADS))
    build()
    code, lines = run_exe(
        ["--workload", opts["workload"], "--seed", opts["seed"],
         "--seconds", opts["seconds"], "--trace", opts["trace"]],
        timeout=175,
    )
    for line in lines:
        print(line)
    sys.exit(code)


def steady(argv):
    opts = parse_opts(argv)
    workload = opts.get("workload") or fail("missing --workload")
    runs = int(opts.get("runs", "10"))
    seconds = opts.get("seconds", "20")
    base = int(opts.get("seed-base", "1"))
    build()
    values = {}
    units = {}
    shares = []
    for i in range(runs):
        code, lines = run_exe(
            ["--workload", workload, "--seed", str(base + i),
             "--seconds", seconds, "--trace", "0"],
            timeout=175,
        )
        if code != 0 or not lines:
            fail("run %d exited with %d" % (i, code), code=1)
        result = json.loads(lines[-1])
        shares.append((result["failed"], result["attempted"]))
        print("run %d seed %d: correct=%s attempted=%d failed=%d %s" % (
            i, base + i, result["correct"], result["attempted"], result["failed"],
            " ".join("%s=%.4g" % (k, m["value"]) for k, m in result["metrics"].items())))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print("%-42s %12s %12s %12s %9s" % ("metric", "median", "q1", "q3", "iqr/med"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        print("%-42s %12.6g %12.6g %12.6g %9.4f %s" % (name, med, q1, q3, spread, units[name]))
    print("failed share per run: %s" % sorted(set(
        str(Fraction(f, a)) for f, a in shares)))


def main():
    argv = sys.argv[1:]
    if argv[:1] == ["steady"]:
        steady(argv[1:])
    elif argv[:1] == ["selftest"]:
        build()
        code, lines = run_exe(["selftest"], timeout=600)
        print("\n".join(lines))
        sys.exit(code)
    else:
        one_run(argv)


if __name__ == "__main__":
    main()
