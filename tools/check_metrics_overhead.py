#!/usr/bin/env python3
"""Gate the enabled metrics engine (src/obs/Metrics.hh) at 2% of step.

Reads a spin_sweep --bench-json record written with --metrics and
--profile. The telemetry phase's share of profiled step time has its
numerator and denominator in one run, so host speed drift cancels out.

    spin_sweep --spec benchmark/workloads/mesh8-light.json --fast \\
        --no-cells --metrics m.jsonl --profile --bench-json b.json
    tools/check_metrics_overhead.py b.json

Exit codes: 0 within budget, 1 over budget, 2 usage error or a missing
or malformed profile (as in check_sweep_baseline.py).
"""

import json
import sys

BUDGET = 0.02

if len(sys.argv) != 2:
    print("usage: check_metrics_overhead.py BENCH_JSON", file=sys.stderr)
    sys.exit(2)
try:
    with open(sys.argv[1]) as f:
        prof = json.load(f)["profile"]
    telemetry = prof["phases"]["telemetry"]
    share, cycles = float(telemetry["share"]), int(prof["cycles"])
except (OSError, ValueError, KeyError, TypeError) as e:
    print(f"check_metrics_overhead: no usable profile: {e!r}",
          file=sys.stderr)
    sys.exit(2)
if cycles <= 0 or not telemetry.get("ns"):
    print("check_metrics_overhead: no profiled telemetry time; run "
          "spin_sweep with --metrics and --profile", file=sys.stderr)
    sys.exit(2)
verdict = "OK" if share <= BUDGET else "FAIL"
print(f"{verdict}: telemetry is {share:.2%} of step time over {cycles} "
      f"cycles (budget {BUDGET:.0%})")
sys.exit(0 if share <= BUDGET else 1)
