#!/usr/bin/env python3
"""Build and run the repository benchmark (fbperf), or compare results.

Run one workload, or all four in turn (from the root of a checkout):

    python3 perfbench/run.py --workload sync-dense --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The script configures and builds perfbench/ (which compiles ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, runs the
fbperf binary, stamps the result with a host and build fingerprint, saves
it under .bench_build/results/ and prints the result JSON as the last
line. With --trace 0, setup_s is the median of SETUP_RUNS cold set-ups:
the measured run's own and those of fresh processes that stop after
set-up, each timed from process start to the first timed job and
scaled by fbperf's host-speed probe (see perfbench/README.md). With
--trace 1 the Chrome trace-event file goes to .bench_build/traces/.

Compare saved results (medians per metric, bounds from BENCHMARK.json):

    python3 perfbench/run.py compare --base A1.json A2.json --new B1.json B2.json

compare refuses results whose host or build fingerprints differ, or any
result that failed its correctness checks. It exits 1 if a metric got
worse than its bound, or if two results of the same seed print different
digests (simulated behaviour changed) unless --sim-change is given.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sync-dense", "wide-1024", "kernels", "fuzz-campaign")
# Fingerprint fields that must match before two results are compared.
HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type")
RUN_TIMEOUT_S = 170
# Cold set-ups per --trace 0 run; setup_s is their median.
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 20


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def out_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build fbperf (a no-op when up to date)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/", 2)
    bdir = os.path.join(out_dir(), "perfbench")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "fbperf",
                  "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-8000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "fbperf")


def source_digest():
    """SHA-256 over the benchmark and simulator sources."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(
                os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(build_info):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "commit": commit(),
        "source_digest": source_digest(),
    }


def cold_setups(binary, workload, seed, count):
    """setup_s of `count` processes that stop after set-up."""
    times = []
    for _ in range(count):
        try:
            r = subprocess.run([binary, "--workload", workload, "--seed",
                                str(seed), "--setup-only", "1"],
                               stdout=subprocess.PIPE, text=True,
                               timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("fbperf set-up exceeded %d s" % SETUP_TIMEOUT_S)
        if r.returncode != 0 or not r.stdout.strip():
            fail("fbperf set-up exited with %d" % r.returncode)
        times.append(json.loads(r.stdout.splitlines()[-1])["setup_s"])
    return times


def run(args, workload):
    spec = load_spec()
    binary = build()
    traces = os.path.join(out_dir(), "traces")
    results = os.path.join(out_dir(), "results")
    os.makedirs(traces, exist_ok=True)
    os.makedirs(results, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, args.seed, args.trace)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-out", os.path.join(traces, tag + ".trace.json")]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("fbperf exceeded %d s" % RUN_TIMEOUT_S)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write(r.stdout)
        fail("fbperf exited with %d" % r.returncode)
    result = json.loads(lines[-1])
    build_info, digest = {}, ""
    for line in lines[:-1]:
        print(line)
        if line.startswith("build: "):
            build_info = json.loads(line[len("build: "):])
        elif line.startswith("digest "):
            digest = line.rsplit(" ", 1)[1]
    # The binary and BENCHMARK.json must name the same metrics.
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if names != got:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(names.items()) ^ set(got.items())))
    setups = []
    if not args.trace:
        setups = [result["metrics"]["setup_s"]["value"]] + cold_setups(
            binary, workload, args.seed, SETUP_RUNS - 1)
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        print("setup_s: median %.6g s of %d cold set-ups %s"
              % (statistics.median(setups), len(setups),
                 " ".join("%.4g" % t for t in setups)))
    fp = fingerprint(build_info)
    record = {"fingerprint": fp, "workload": workload,
              "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "digest": digest,
              "setup_samples_s": setups, "result": result}
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    print("fingerprint: " + json.dumps(fp, sort_keys=True))
    print(json.dumps(result))


def compare(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sides = {}
    for side in ("base", "new"):
        sides[side] = []
        for path in getattr(args, side):
            with open(path) as f:
                sides[side].append(json.load(f))
    records = sides["base"] + sides["new"]
    first = records[0]
    for rec in records[1:]:
        host = [k for k in HOST_KEYS
                if rec["fingerprint"][k] != first["fingerprint"][k]]
        if host:
            fail("refusing to compare: fingerprints differ in %s"
                 % ", ".join(host), 2)
        for k in ("workload", "seconds", "trace"):
            if rec[k] != first[k]:
                fail("refusing to compare: %s differs" % k, 2)
    print("host: " + json.dumps({k: first["fingerprint"][k]
                                 for k in HOST_KEYS}))
    incorrect = False
    for side in ("base", "new"):
        commits = sorted({"%s/%s" % (r["fingerprint"]["commit"],
                                     r["fingerprint"]["source_digest"])
                          for r in sides[side]})
        print("%s commits: %s" % (side, ", ".join(commits)))
        res = [r["result"] for r in sides[side]]
        print("%s jobs: %d failed of %d attempted"
              % (side, sum(r["failed"] for r in res),
                 sum(r["attempted"] for r in res)))
        incorrect |= not all(r["correct"] and r["failed"] == 0
                             for r in res)
    # A speed-up does not count if jobs fail its checks.
    if incorrect:
        fail("refusing to compare: a result failed its correctness "
             "checks", 2)
    digests = {}
    for side in ("base", "new"):
        for r in sides[side]:
            digests.setdefault(r["seed"], {}).setdefault(side, set()).add(
                r["digest"])
    worse = False
    for seed, d in sorted(digests.items()):
        if len(d) == 2:
            same = d["base"] == d["new"]
            print("digest seed=%d: %s" % (seed, "same" if same
                                          else "DIFFERENT"))
            if not same and not args.sim_change:
                worse = True
    print("%-34s %14s %14s %9s %7s" % ("metric", "base", "new", "change",
                                      "bound"))
    for name in first["result"]["metrics"]:
        b = statistics.median(r["result"]["metrics"][name]["value"]
                              for r in sides["base"])
        n = statistics.median(r["result"]["metrics"][name]["value"]
                              for r in sides["new"])
        m = bounds.get(name, {})
        change = (n - b) / b if b else 0.0
        bound = m.get("bound")
        verdict = ""
        if bound is not None:
            loss = -change if m["better"] == "higher" else change
            if loss > bound:
                verdict, worse = " WORSE", True
        print("%-34s %14.6g %14.6g %+8.2f%% %7s%s"
              % (name, b, n, 100 * change,
                 "" if bound is None else "%.2f" % bound, verdict))
    sys.exit(1 if worse else 0)


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("--base", nargs="+", required=True)
        p.add_argument("--new", nargs="+", required=True)
        p.add_argument("--sim-change", action="store_true",
                       help="the change is meant to alter simulated "
                            "results; different digests are expected")
        compare(p.parse_args(sys.argv[2:]))
        return
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run(args, workload)


if __name__ == "__main__":
    main()
