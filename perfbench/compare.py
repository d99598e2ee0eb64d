#!/usr/bin/env python3
"""Compare benchmark records of two builds, workload by workload.

    python3 perfbench/compare.py BASE.ndjson CHANGE.ndjson

Each file holds the records run.py appends to <build>/records.ndjson. For
every (workload, trace, seconds, toy) group and metric the script prints
each side's median, quartile spread and the change of the median. Records
whose host fingerprints differ (CPUs, CPU model, OS kernel, push kernel,
build type) are not silently diffed: the script names the differing fields,
marks the comparison FLAGGED and exits with status 3.
"""
import json
import statistics
import sys

# Fingerprint fields that must match for a comparison to mean anything;
# git_sha and source_digest are what is being compared.
HOST_FIELDS = ("allowed_cpus", "nproc", "cpu_model", "os_kernel",
               "push_kernel", "build_type")


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def summary(values):
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, float("nan")
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(argv[0]), load(argv[1])
    flagged = set()
    for field in HOST_FIELDS:
        seen = {json.dumps(r["fingerprint"].get(field))
                for r in base + change}
        if len(seen) > 1:
            flagged.add(field)
    if flagged:
        print("FLAGGED: host fingerprints differ in %s; the numbers below "
              "are not comparable" % ", ".join(sorted(flagged)))

    def group(r):
        return r["workload"], r["trace"], r["seconds"], r["toy"]

    for key in sorted({group(r) for r in base + change}):
        rows = {}
        for side, records in (("base", base), ("change", change)):
            for r in records:
                if group(r) != key:
                    continue
                for name, m in r["result"]["metrics"].items():
                    rows.setdefault(name, {}).setdefault(side, []).append(
                        m["value"])
        print("\n%s (trace %d, %g s%s)"
              % (key[0], key[1], key[2], ", toy" if key[3] else ""))
        print("%-34s %14s %7s %14s %7s %8s" % ("metric", "base", "spread",
                                               "change", "spread", "delta"))
        for name, sides in rows.items():
            if "base" not in sides or "change" not in sides:
                continue
            bm, bs = summary(sides["base"])
            cm, cs = summary(sides["change"])
            delta = (cm / bm - 1) * 100 if bm else float("nan")
            print("%-34s %14.6g %7.3f %14.6g %7.3f %+7.1f%%"
                  % (name, bm, bs, cm, cs, delta))
    return 3 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
