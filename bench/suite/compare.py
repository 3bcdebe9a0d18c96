#!/usr/bin/env python3
"""Paired comparison of two sets of ompcbench results (stdlib only).

    python3 bench/suite/compare.py PARENT CHANGE [--bench BENCHMARK.json]

PARENT and CHANGE are result files written by `ompcbench --out FILE` (one
JSON record per line), or FILE#SET to pick one set out of a baseline file
such as results/baseline.json ({"sets": {"SET": [records...]}}). Run the
two sides alternately (parent, change, parent, ...) so that the i-th
untraced record of each side forms a pair.

For every workload and end-to-end metric the script prints both medians and
quartiles, the share of pairs the change won (ties count for neither side)
and a verdict:

  failed      a larger share of the change's ops failed than of the
              parent's; no timing of that workload counts as a gain;
  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  improved    the change won at least 9 of 10 pairs and the medians differ
              by more than the parent's quartile spread;
  worse       the same test the other way round: the change lost at least 9
              of 10 pairs by more than the parent's spread, yet stayed
              within the bound. The bounds must cover the noisiest
              workload, so on a steady one this is the first sign of a
              slowdown; it is reported, not failed;
  unresolved  the parent's own quartile spread exceeds the bound;
  unchanged   otherwise.

A run with failed ops reports no metrics (ompcbench leaves them out), so
it takes no part in the medians or the pairs. The script also prints each
side's share of failed ops, and exits 1 when any metric failed or
regressed.
"""
import argparse
import json
import os
import statistics
import sys


def load(spec):
    path, _, set_name = spec.partition("#")
    with open(path) as f:
        text = f.read()
    if set_name:
        return json.loads(text)["sets"][set_name]
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def by_workload(records):
    out = {}
    for rec in records:
        if rec.get("trace", 0) == 0:
            out.setdefault(rec["workload"], []).append(rec["result"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(parent, change, pairs, bound, lower_better, more_failed):
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    sign = 1.0 if lower_better else -1.0
    worse = sign * (c_med - p_med) / p_med if p_med else 0.0
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    share = wins / len(pairs) if pairs else 0.0
    lost = losses / len(pairs) if pairs else 0.0
    if more_failed:
        v = "failed"
    elif worse > bound:
        v = "regressed"
    elif share >= 0.9 and sign * (p_med - c_med) > q3 - q1:
        v = "improved"
    elif lost >= 0.9 and sign * (c_med - p_med) > q3 - q1:
        v = "worse"
    elif p_med and (q3 - q1) / abs(p_med) > bound:
        v = "unresolved"
    else:
        v = "unchanged"
    return p_med, (q1, q3), c_med, quartiles(change), share, v


def failed_share(results):
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 0.0


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=os.path.join(here, "..", "..", "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.bench) as f:
        metrics = json.load(f)["end_to_end"]
    parent, change = by_workload(load(args.parent)), by_workload(load(args.change))

    bad = False
    print("%-12s %-16s %12s %25s %12s %25s %5s  %s" % (
        "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "wins", "verdict"))
    for workload in sorted(set(parent) & set(change)):
        p_runs, c_runs = parent[workload], change[workload]
        p_failed, c_failed = failed_share(p_runs), failed_share(c_runs)
        for m in metrics:
            name = m["name"]
            p_all = [r["metrics"].get(name, {}).get("value") for r in p_runs]
            c_all = [r["metrics"].get(name, {}).get("value") for r in c_runs]
            p = [v for v in p_all if v is not None]
            c = [v for v in c_all if v is not None]
            pairs = [(a, b) for a, b in zip(p_all, c_all) if a is not None and b is not None]
            if not p or not c:
                if c_failed > p_failed:
                    bad = True
                    print("%-12s %-16s %12s %25s %12s %25s %5s  failed" % (
                        workload, name, "-", "", "-", "", ""))
                continue
            p_med, p_q, c_med, c_q, share, v = verdict(
                p, c, pairs, m["bound"], m["better"] == "lower", c_failed > p_failed)
            bad |= v in ("failed", "regressed")
            print("%-12s %-16s %12.6g %25s %12.6g %25s %5.2f  %s" % (
                workload, name, p_med, "[%.6g, %.6g]" % p_q, c_med, "[%.6g, %.6g]" % c_q,
                share, v))
        print("%-12s %-16s parent %.4f  change %.4f  (runs: %d vs %d)" % (
            workload, "failed_ops", p_failed, c_failed, len(p_runs), len(c_runs)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
