#!/usr/bin/env python3
"""Compares a parent and a change benchmark result set.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records `run.py --out FILE` appends, one per
invocation.  Records pair up per workload and trace mode in file order, so
run parent and change alternately (parent first in one pair, change first
in the next) and append each side to its own file.  Every (workload,
metric) row is marked improved, unchanged, regressed or unresolved by the
rule in benchlib.compare, with the ratio and both medians.  Metric
direction and bounds come from BENCHMARK.json.  The exit code is 1 when
any row regressed.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import benchlib  # noqa: E402


def load_spec():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load(path):
    groups = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            key = (rec["env"]["workload"], rec.get("trace", 0))
            groups.setdefault(key, []).append(rec)
    return groups


def values(recs, metric):
    return [r["metrics"][metric]["value"] for r in recs
            if metric in r["metrics"]]


def compare(parent_path, change_path, spec):
    parent, change = load(parent_path), load(change_path)
    regressed = False
    print(f"{'workload':12} {'metric':28} {'status':10} {'ratio':>7} "
          f"{'parent':>12} {'change':>12} {'wins':>6}")
    for key in sorted(parent):
        if key not in change:
            print(f"{key[0]:12} (no change runs)")
            continue
        n = min(len(parent[key]), len(change[key]))
        for metric in parent[key][0]["metrics"]:
            p, c = values(parent[key][:n], metric), values(change[key][:n],
                                                          metric)
            if len(p) != len(c) or not p:
                continue
            m = spec.get(metric, {})
            status, info = benchlib.compare(p, c, m.get("better", "lower"),
                                            m.get("bound"))
            regressed |= status == "regressed"
            print(f"{key[0]:12} {metric:28} {status:10} "
                  f"{info['ratio']:7.3f} {info['parent_median']:12.6g} "
                  f"{info['change_median']:12.6g} "
                  f"{info['wins']:>3}/{info['pairs']}")
    return 1 if regressed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args()
    return compare(args.parent, args.change, load_spec())


if __name__ == "__main__":
    sys.exit(main())
