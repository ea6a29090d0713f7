"""Summarize full-size untraced run records into a baseline.

    python3 bench/summarize.py > bench/baseline.json

Reads ``.bench_out/*-full-trace0.json`` and prints, per workload, each
end-to-end metric's median, quartiles and spread ((q3 - q1) / median, the
steadiness measure), the failure count, the per-seed output digests that
``run.py`` compares against, and the provenance of the runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(records):
    out = {}
    for rec in records:
        prov = rec["provenance"]
        w = out.setdefault(prov["workload"], {"seeds": [], "values": {}, "digests": {},
                                              "attempted": 0, "failed": 0})
        w["seeds"].append(prov["seed"])
        w["attempted"] += rec["attempted"]
        w["failed"] += rec["failed"]
        if rec["digests"]:
            w["digests"][str(prov["seed"])] = rec["digests"][0]
        for name, value in rec.get("end_to_end", {}).items():
            w["values"].setdefault(name, []).append(value)
        w["provenance"] = {k: v for k, v in prov.items() if k not in ("workload", "seed")}
    for w in out.values():
        stats = {}
        for name, values in w.pop("values").items():
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            stats[name] = {"median": med, "q1": q1, "q3": q3,
                           "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}
        w["metrics"] = stats
        w["seeds"].sort()
    return out


def main():
    paths = sorted((ROOT / ".bench_out").glob("*-full-trace0.json"))
    if not paths:
        sys.exit("no full-size untraced records under .bench_out/")
    records = [json.loads(p.read_text()) for p in paths]
    print(json.dumps(summarize(records), indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
