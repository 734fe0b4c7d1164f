#!/usr/bin/env python3
"""Entry point of the benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py steady --workload W [--runs K] [--seconds S] [--seed0 N]
    python3 perfbench/run.py selftest [--seed N]

The first form builds the measuring program (a cargo package in this
directory, built against the repository's crates) and runs one workload;
the last line it prints is the run's result as one JSON object. `steady`
runs a workload K times with seeds seed0 .. seed0+K-1 and prints, for every
end-to-end metric, the median, the quartiles and the spread against the
metric's bound in BENCHMARK.json. `selftest` checks that every correctness
check counts a tampered expected value as failed.

Run it from the root of the checkout. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`), detail files and spans to `.bench_out/`.
"""

import hashlib
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = ROOT / ".bench_out"
# A run must end within 180 s; the build before it is not counted here.
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def spec():
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def target_dir():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if done.returncode != 0:
        fail("build failed")
    return target_dir() / "release" / "perfbench"


def source_digest():
    """SHA-256 over the sources the program is built from, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    paths = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "vendor", "tests/golden", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "target" not in p.relative_to(ROOT).parts:
                paths.append(p)
    for p in paths:
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def revision():
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            if done.returncode == 0:
                return done.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return "source-sha256:" + source_digest()


def run_once(binary, workload, seed, seconds, trace, rev):
    """Runs the measuring program once; returns its result object."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(OUT), "--rev", rev]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{workload} exited with code {done.returncode}")
    result = json.loads(lines[-1])
    wanted = {m["name"] for m in spec()["per_layer" if trace else "end_to_end"]}
    got = set(result["metrics"])
    if got != wanted:
        fail(f"metric set differs from BENCHMARK.json: missing {sorted(wanted - got)}, "
             f"extra {sorted(got - wanted)}")
    return result


def parse(argv, flags):
    """`--flag value` pairs into a dict, with the given defaults."""
    opts = dict(flags)
    it = iter(argv)
    for flag in it:
        key = flag.lstrip("-")
        if not flag.startswith("--") or key not in opts:
            fail(f"unknown argument {flag}")
        try:
            opts[key] = type(flags[key])(next(it))
        except (StopIteration, ValueError):
            fail(f"bad value for {flag}")
    return opts


def cmd_run(argv):
    opts = parse(argv, {"workload": "", "seed": 1, "seconds": 10, "trace": 0})
    if opts["workload"] not in {w["name"] for w in spec()["workloads"]}:
        fail(f"unknown workload {opts['workload']!r}")
    if opts["trace"] not in (0, 1):
        fail("--trace takes 0 or 1")
    binary = build()
    result = run_once(binary, opts["workload"], opts["seed"], opts["seconds"],
                      opts["trace"], revision())
    print(json.dumps(result))


def cmd_steady(argv):
    s = spec()
    opts = parse(argv, {"workload": "", "runs": 10, "seconds": s["run_seconds"],
                        "seed0": 1})
    binary = build()
    rev = revision()
    values = {}
    failed = []
    for k in range(opts["runs"]):
        seed = opts["seed0"] + k
        t = time.time()
        r = run_once(binary, opts["workload"], seed, opts["seconds"], 0, rev)
        failed.append(r["failed"] / r["attempted"])
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"run {k + 1}/{opts['runs']} seed {seed}: {time.time() - t:.1f} s, "
              f"{r['attempted']} attempted, {r['failed']} failed", file=sys.stderr)
    print(f"{opts['workload']}: {opts['runs']} runs of {opts['seconds']} s, "
          f"failed share {sorted(set(failed))}")
    print(f"{'metric':<26} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'maxdev':>8} {'bound':>6}")
    worst = 0.0
    for m in s["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        maxdev = max(abs(x - med) for x in v) / med if med else float("inf")
        flag = "" if spread <= m["bound"] / 3 else "  > bound/3"
        if m["name"] != "setup_s":
            worst = max(worst, spread / m["bound"])
        print(f"{m['name']:<26} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{spread:>8.4f} {maxdev:>8.4f} {m['bound']:>6}{flag}")
    print(f"largest spread / bound (setup_s aside): {worst:.3f}")


def cmd_selftest(argv):
    opts = parse(argv, {"seed": 1})
    binary = build()
    done = subprocess.run([str(binary), "--self-test", "--seed", str(opts["seed"])],
                          cwd=ROOT, timeout=RUN_TIMEOUT_S)
    sys.exit(done.returncode)


def main():
    argv = sys.argv[1:]
    commands = {"steady": cmd_steady, "selftest": cmd_selftest}
    if argv and argv[0] in commands:
        commands[argv[0]](argv[1:])
    else:
        cmd_run(argv)


if __name__ == "__main__":
    main()
