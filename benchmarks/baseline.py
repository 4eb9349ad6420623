"""Summarise the result files in benchmarks/results/ into benchmarks/baseline.json.

    python3 benchmarks/baseline.py

For every workload it records the median and quartiles of each end-to-end
metric over the untraced runs, the median of each per-layer metric over
the traced runs, the seeds behind them, and the machine they ran on.
Later changes size their claims against these numbers.
"""

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER, spread  # noqa: E402


def main() -> int:
    results = [json.loads(p.read_text()) for p in sorted((HERE / "results").glob("*-trace*.json"))]
    if not results:
        print("baseline.py: no result files in benchmarks/results/", file=sys.stderr)
        return 1
    out = {"environment": results[-1]["environment"], "workloads": {}}
    for workload in dict.fromkeys(r["workload"] for r in results):
        plain = [r for r in results if r["workload"] == workload and not r["trace"]]
        traced = [r for r in results if r["workload"] == workload and r["trace"]]
        entry = {"seeds": sorted(r["seed"] for r in plain),
                 "run_seconds": sorted({r["seconds"] for r in plain}),
                 "end_to_end": {}, "traced_seeds": sorted(r["seed"] for r in traced),
                 "per_layer": {}}
        for name, (unit, _) in END_TO_END.items():
            values = [r["metrics"][name]["value"] for r in plain]
            if len(values) >= 2:
                med, q1, q3 = spread(values)
                entry["end_to_end"][name] = {"median": med, "q1": q1, "q3": q3, "unit": unit}
        for name, (unit, _) in PER_LAYER.items():
            values = [r["metrics"][name]["value"] for r in traced]
            if values:
                entry["per_layer"][name] = {"median": statistics.median(values), "unit": unit}
        out["workloads"][workload] = entry
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
