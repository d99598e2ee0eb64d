#!/usr/bin/env python3
"""minivpic's repository benchmark.

Builds the C++ benchmark binary (perfbench/CMakeLists.txt, against ../src)
and runs one seeded workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in BENCHMARK.json at the repository root;
perfbench/README.md explains them. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1. The line before it is the run's host fingerprint, and each run
appends a record (fingerprint + result) to <build>/records.ndjson, which
perfbench/compare.py reads. Exit status: 0 when every correctness gate held,
1 when a gate failed or the run could not be made, 2 on a usage error.
"""
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lpi_pipelines", "lpi_ranks", "service_mix")
DECK = os.path.join(ROOT, "decks", "lpi_srs.deck")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170

USAGE = """\
usage: python3 perfbench/run.py --workload NAME --seed N --seconds S \
--trace 0|1 [--toy]

  --workload  one of: {}
  --seed      non-negative integer; sets the particle load and job overrides
  --seconds   measured window per run (> 0)
  --trace     0: end-to-end metrics; 1: per-layer metrics from a traced run
  --toy       tiny sizes (the benchmark's own tests)
""".format(", ".join(WORKLOADS))


class UsageError(Exception):
    pass


def parse_args(argv):
    """--key value or --key=value; every flag is checked, --help included."""
    opts = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--"):
            raise UsageError("unexpected argument %r" % arg)
        key, eq, value = arg[2:].partition("=")
        if key == "toy" and not eq:
            opts["toy"] = "1"
            i += 1
            continue
        if key not in ("workload", "seed", "seconds", "trace", "toy"):
            raise UsageError("unknown option %r" % arg)
        if not eq:
            if i + 1 >= len(argv):
                raise UsageError("option --%s needs a value" % key)
            i += 1
            value = argv[i]
        opts[key] = value
        i += 1
    missing = [k for k in ("workload", "seed", "seconds", "trace")
               if k not in opts]
    if missing:
        raise UsageError("missing --" + ", --".join(missing))
    if opts["workload"] not in WORKLOADS:
        raise UsageError("unknown workload %r" % opts["workload"])
    try:
        seed = int(opts["seed"])
        seconds = float(opts["seconds"])
        trace = int(opts["trace"])
    except ValueError as e:
        raise UsageError(str(e))
    if seed < 0 or not seconds > 0 or trace not in (0, 1):
        raise UsageError("need --seed >= 0, --seconds > 0, --trace 0 or 1")
    return {"workload": opts["workload"], "seed": seed, "seconds": seconds,
            "trace": trace, "toy": opts.get("toy", "0") not in ("0", "")}


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(bdir):
    """Configures once, then builds incrementally; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isfile(DECK)):
        raise RuntimeError("minivpic sources (src/, decks/) not found in "
                           + ROOT)
    os.makedirs(bdir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", bdir, "-j",
                  str(len(os.sched_getaffinity(0)))])
    with open(os.path.join(bdir, "build.log"), "a") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                raise RuntimeError("build failed; see "
                                   + os.path.join(bdir, "build.log"))
    return os.path.join(bdir, "perfbench")


def source_digest():
    """sha256 over the library sources and the benchmark itself."""
    h = hashlib.sha256()
    for top in ("src", "perfbench", "decks"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(host):
    """Host and build facts; compare.py flags comparisons across them."""
    return {
        "allowed_cpus": sorted(os.sched_getaffinity(0)),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "os_kernel": platform.release(),
        "push_kernel": host.get("push_kernel"),
        "build_type": BUILD_TYPE,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
    }


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return bench["per_layer" if trace else "end_to_end"]


def validate(result, trace):
    """The result must name every declared metric with its unit."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("result keys %s" % sorted(result))
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        raise RuntimeError("bad attempted/failed counts")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != {m["name"] for m in want}:
        raise RuntimeError("metric names differ from BENCHMARK.json: %s" %
                           sorted(set(got) ^ {m["name"] for m in want}))
    for m in want:
        v = got[m["name"]]
        if v.get("unit") != m["unit"] or not isinstance(
                v.get("value"), (int, float)) or not math.isfinite(v["value"]):
            raise RuntimeError("metric %s is %r" % (m["name"], v))
        if not trace and not v["value"] > 0:
            raise RuntimeError("end-to-end metric %s is not positive"
                               % m["name"])


def main(argv):
    try:
        args = parse_args(argv)
    except UsageError as e:
        print("run.py: %s\n%s" % (e, USAGE), file=sys.stderr)
        return 2

    bdir = build_dir()
    try:
        t0 = time.monotonic()
        binary = build(bdir)
        log("build ready in %.1f s" % (time.monotonic() - t0))
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as e:
        log(str(e))
        return 1

    work = os.path.join(bdir, "work", "%s-%d" % (args["workload"],
                                                 os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [binary, "--workload=" + args["workload"],
           "--seed=%d" % args["seed"], "--seconds=%r" % args["seconds"],
           "--trace=%d" % args["trace"], "--deck=" + DECK,
           "--work-dir=" + work] + (["--toy"] if args["toy"] else [])
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark binary exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        trace_file = os.path.join(work, "trace.json")
        if os.path.isfile(trace_file):
            os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
            shutil.move(trace_file, os.path.join(
                bdir, "traces",
                "%s-seed%d.json" % (args["workload"], args["seed"])))
        shutil.rmtree(work, ignore_errors=True)

    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    try:
        host = json.loads(lines[0])["host"]
        result = json.loads(lines[-1])
        validate(result, args["trace"])
    except (IndexError, KeyError, ValueError, TypeError, RuntimeError) as e:
        log("benchmark binary exited %d without a valid result (%s)"
            % (proc.returncode, e))
        return 1

    fp = fingerprint(host)
    record = dict(args, fingerprint=fp, result=result)
    with open(os.path.join(bdir, "records.ndjson"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"fingerprint": fp}))
    print(json.dumps(result), flush=True)
    if proc.returncode != 0 or not result["correct"] or result["failed"]:
        log("a correctness gate failed (exit %d)" % proc.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
