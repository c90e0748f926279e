#!/usr/bin/env python3
"""Summarize benchmark records into one result file.

    python3 perfbench/summarize.py perfbench/results/<name>.json

Reads every perfbench/out/<workload>-seed<N>-trace<T>.json that run.py
wrote, groups the records by workload and trace mode, and writes for each
metric the median, quartiles, spread (quartile distance over median) and
sample count, with the environment of the first record of each group.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import OUT, quartiles


def summarize(records: list[dict]) -> dict:
    values = defaultdict(list)
    for rec in records:
        for name, metric in rec["metrics"].items():
            values[name].append(metric["value"])
    summary = {}
    for name, vals in values.items():
        q1, _, q3 = quartiles(vals)
        med = statistics.median(vals)
        summary[name] = {
            "unit": records[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0,
            "count": len(vals),
        }
    env = dict(records[0]["environment"])
    env["seeds"] = sorted(r["environment"]["seed"] for r in records)
    env.pop("seed")
    return {"environment": env, "metrics": summary}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    groups = defaultdict(list)
    for path in sorted(OUT.glob("*-seed*-trace[01].json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        env = rec["environment"]
        groups[f"{env['workload']} trace={env['trace']}"].append(rec)
    result = {key: summarize(recs) for key, recs in sorted(groups.items())}
    Path(argv[0]).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    for key, group in result.items():
        print(key)
        for name, s in group["metrics"].items():
            print(f"  {name:32s} {s['median']:14.6g} {s['unit']:7s} spread {s['spread']:.4f} n={s['count']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
