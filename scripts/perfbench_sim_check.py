#!/usr/bin/env python3
"""Check perfbench's seeded simulated output against its committed record.

Runs every workload that BENCHMARK.json declares at `--trace 0` and
`--trace 1` with the record's seed and compares each simulated value with
bench/perfbench_seed1_sim.json exactly: the `--trace 0` simulated metrics
and every `--trace 1` metric except the host-time ones (`host_*`).
`setup_s` is host time too and is not recorded. Simulated time is a pure
function of the seed, so any difference is a behaviour change.

    python3 scripts/perfbench_sim_check.py            # check
    python3 scripts/perfbench_sim_check.py --update   # rewrite the record

A change that moves simulated numbers on purpose refreshes the record with
--update and explains each moved value in CHANGES.md, as a refresh of
bench/baseline.json does. Exits 1 on any difference, on a missing or extra
metric or workload (the record must pin exactly BENCHMARK.json's
workloads), and when a run is not correct or has failed reads.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "bench", "perfbench_seed1_sim.json")
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
SEED = 1
SECONDS = "1"


def workloads():
    """The workload names BENCHMARK.json declares, in its order."""
    with open(BENCHMARK) as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def simulated(metrics, trace):
    """The seed-determined values of one run's metrics."""
    if trace == 0:
        return {k: m["value"] for k, m in metrics.items()
                if k.startswith("sim_")}
    return {k: m["value"] for k, m in metrics.items()
            if not k.startswith("host_")}


def run(workload, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED),
           "--seconds", SECONDS, "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    doc = json.loads(out.stdout.strip().splitlines()[-1])
    if doc.get("correct") is not True or doc.get("failed") != 0:
        sys.exit(f"{workload} --trace {trace}: correct={doc.get('correct')} "
                 f"failed={doc.get('failed')}")
    return simulated(doc["metrics"], trace)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the record from this checkout")
    args = parser.parse_args()

    names = workloads()
    if not args.update:
        with open(RECORD) as fh:
            want = json.load(fh)
        if set(want["workloads"]) != set(names):
            sys.exit(f"{RECORD} pins workloads {sorted(want['workloads'])} "
                     f"but {BENCHMARK} declares {sorted(names)}")
    got = {"seed": SEED, "workloads": {
        w: {f"trace{t}": run(w, t) for t in (0, 1)} for w in names}}
    if args.update:
        with open(RECORD, "w") as fh:
            json.dump(got, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {RECORD}")
        return

    diffs = []
    for w in names:
        for mode in ("trace0", "trace1"):
            exp = want["workloads"][w].get(mode, {})
            act = got["workloads"][w][mode]
            for key in sorted(exp.keys() | act.keys()):
                if exp.get(key) != act.get(key):
                    diffs.append(f"{w} {mode} {key}: record {exp.get(key)} "
                                 f"!= run {act.get(key)}")
    for d in diffs:
        print(d)
    if diffs:
        sys.exit(f"{len(diffs)} simulated value(s) differ from {RECORD}")
    print(f"all simulated values match {RECORD}")


if __name__ == "__main__":
    main()
