#!/usr/bin/env python3
"""Steadiness and determinism runner for the avdb end-to-end benchmark.

Run from the repository root:

    python3 avbench/steady.py --workload preview_wall --runs 10 [--seconds 10]
    python3 avbench/steady.py --all --runs 10

For each workload it runs avbench/run.py --runs times, each with another
seed (1..runs), and prints for every end-to-end metric, for the same host
figures in plain (uncalibrated) CPU seconds, and for every virtual-time QoS
figure its median, quartiles and spread = (Q3 - Q1) / median, using
statistics.quantiles(values, n=4). The benchmark's bounds in
BENCHMARK.json are set from these spreads and from how far the medians of
two such sets, run far apart, differ.

It also checks determinism, exiting non-zero when a check fails:
  * the first seed is run a second time: its virtual-time results (the QoS
    line and the vdigest) must repeat exactly;
  * every seed must give a different vdigest, which shows the seed is used.

Throughput is CPU time, not wall time: an earlier wall-clock version of
this benchmark moved its medians by up to 8% between two sets of runs of
unchanged code on a shared 4-core host (frames/s 9652 -> 8882, setup
0.374 s -> 0.393 s), so it could not tell a regression from a neighbour.
Plain CPU time still moved with the host's speed (by up to 37% between two
sets 40 minutes apart), so the reported host figures are calibrated by a
reference kernel run alongside (see README.md).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["preview_wall", "replicated_playback", "newscast_zap",
             "ingest_beside_playback"]


def run_once(workload, seed, seconds):
    """Runs the benchmark once; returns (result, qos, capacity, plain,
    vdigest), where plain holds the host figures in uncalibrated CPU
    seconds."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("%s seed %d failed (exit %d):\n%s" %
                 (workload, seed, proc.returncode, proc.stdout))
    result = json.loads(lines[-1])
    qos, capacity, plain, vdigest = None, None, {}, None
    for line in lines:
        if line.startswith("qos "):
            qos = json.loads(line.split(" ", 2)[2])
        elif line.startswith("capacity "):
            capacity = json.loads(line.split(" ", 2)[2])
        elif line.startswith("uncalibrated "):
            for field in line.split(" (")[0].split()[1:]:
                name, value = field.split("=")
                plain[name] = {"value": float(value),
                               "unit": plain_unit(name)}
        elif line.startswith("vdigest "):
            vdigest = line.split()[2]
    return result, qos, capacity, plain, vdigest


def plain_unit(name):
    return {"setup_s": "CPU-s", "frames_per_cpu_s": "frames/CPU-s",
            "opens_per_cpu_s": "opens/CPU-s"}[name]


def spread_row(name, unit, values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2 if q2 else float("nan")
    return "  %-22s %-13s median %-12.6g Q1 %-12.6g Q3 %-12.6g spread %.4f" % (
        name, unit, q2, q1, q3, spread), spread


def study(workload, runs, seconds):
    print("== %s: %d runs, --seconds %g" % (workload, runs, seconds))
    results, qos_all, capacity_all, plain_all, digests = [], [], [], [], []
    for seed in range(1, runs + 1):
        result, qos, capacity, plain, vdigest = run_once(workload, seed,
                                                         seconds)
        if not result["correct"]:
            sys.exit("%s seed %d: output checks failed" % (workload, seed))
        results.append(result)
        qos_all.append(qos)
        capacity_all.append(capacity)
        plain_all.append(plain)
        digests.append(vdigest)
        print("  seed %-3d attempted %-8d failed %-4d %s" % (
            seed, result["attempted"], result["failed"], " ".join(
                "%s=%.6g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
    ok = True
    print(" end-to-end (BENCHMARK.json):")
    for name, metric in results[0]["metrics"].items():
        row, _ = spread_row(name, metric["unit"],
                            [r["metrics"][name]["value"] for r in results])
        print(row)
    for title, figures in ((" uncalibrated (plain CPU seconds):", plain_all),
                           (" workload capacity (host):", capacity_all),
                           (" virtual-time QoS (exact per seed):", qos_all)):
        print(title)
        for name, metric in figures[0].items():
            values = [f[name]["value"] for f in figures]
            if statistics.median(values) == 0:
                print("  %-22s %-13s 0 on every run" % (name, metric["unit"]))
                continue
            row, _ = spread_row(name, metric["unit"], values)
            print(row)
    again, qos_again, _, _, digest_again = run_once(workload, 1, seconds)
    if qos_again != qos_all[0] or digest_again != digests[0] or \
            again["attempted"] != results[0]["attempted"] or \
            again["failed"] != results[0]["failed"]:
        print(" DETERMINISM FAILED: seed 1 did not repeat its virtual-time "
              "results")
        ok = False
    else:
        print(" determinism: seed 1 repeated its virtual-time results and "
              "vdigest %s exactly" % digests[0])
    if len(set(digests)) != len(digests):
        print(" SEED CHECK FAILED: two seeds gave the same vdigest")
        ok = False
    else:
        print(" seed check: %d seeds gave %d distinct vdigests" %
              (runs, len(set(digests))))
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    args = parser.parse_args()
    if args.runs < 2 or not (args.all or args.workload):
        parser.error("give --workload or --all, and --runs >= 2")
    workloads = WORKLOADS if args.all else [args.workload]
    ok = True
    for workload in workloads:
        ok = study(workload, args.runs, args.seconds) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
