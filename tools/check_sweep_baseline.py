#!/usr/bin/env python3
"""Compare two spin-sweep-bench records (bench/BENCH_sweep.json format).

The record's ``digest`` holds the deterministic per-cell results
(latency, throughput, flits ejected, spins). The simulator is
bit-deterministic for a given spec, so these must match the committed
baseline essentially exactly; a drift here means the simulation changed
behaviour and the baseline must be regenerated *deliberately* (see
EXPERIMENTS.md). A ``profile`` block (spin_sweep --profile) is
wall-clock data and is ignored here.

Cells produced by the reliability sweep dimension carry ``__rel`` ids
(docs/SWEEP.md); a spec that never swept reliability has no such cells,
so existing baselines stay valid. Adding the dimension to a gated spec
surfaces here as "cell not in baseline" -- regenerate the baseline
deliberately when that is intended.

Exit codes: 0 match, 1 mismatch, 2 usage/IO error.

Usage:
    tools/check_sweep_baseline.py bench/BENCH_sweep.json new.json
    tools/check_sweep_baseline.py a.json b.json --rtol 1e-6
"""

import argparse
import json
import math
import sys

DIGEST_FIELDS = ("latency", "throughput", "flitsEjected", "spins")


def load(path):
    """Read and parse one record, exiting 2 with a clear message on any
    IO or JSON problem (a missing baseline is a setup error, not a
    digest mismatch)."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        print(f"check_sweep_baseline: cannot read {path}: {e}",
              file=sys.stderr)
        print("Generate the baseline with "
              "'spin_sweep --bench-json <path>' (see EXPERIMENTS.md).",
              file=sys.stderr)
        sys.exit(2)
    except ValueError as e:
        print(f"check_sweep_baseline: {path} is not valid JSON: {e}",
              file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict):
        print(f"check_sweep_baseline: {path} holds a JSON "
              f"{type(doc).__name__}, want a spin-sweep-bench/v1 object",
              file=sys.stderr)
        sys.exit(2)
    return doc


def digest_cells(rec, name):
    """Index a record's digest by cell id, exiting 2 on schema drift."""
    digest = rec.get("digest")
    if not isinstance(digest, list):
        print(f"check_sweep_baseline: {name}: 'digest' must be an "
              f"array, got {type(digest).__name__}", file=sys.stderr)
        sys.exit(2)
    cells = {}
    for i, c in enumerate(digest):
        if not isinstance(c, dict) or "cell" not in c:
            print(f"check_sweep_baseline: {name}: digest[{i}] has no "
                  "'cell' key; the record does not match the "
                  "spin-sweep-bench/v1 schema", file=sys.stderr)
            sys.exit(2)
        cells[c["cell"]] = c
    return cells


def close(a, b, rtol):
    if a is None or b is None:
        return a is b
    if isinstance(a, bool) or isinstance(b, bool):
        return a == b
    fa, fb = float(a), float(b)
    if math.isnan(fa) or math.isnan(fb):
        return False
    return abs(fa - fb) <= rtol * max(abs(fa), abs(fb), 1.0)


def main():
    ap = argparse.ArgumentParser(
        description="Gate a spin_sweep run against the committed "
                    "BENCH_sweep.json baseline.")
    ap.add_argument("baseline", help="committed baseline record")
    ap.add_argument("candidate", help="freshly generated record")
    ap.add_argument("--rtol", type=float, default=1e-9,
                    help="relative tolerance for digest numerics "
                         "(default %(default)g; the run is "
                         "deterministic, so keep this tight)")
    args = ap.parse_args()

    base = load(args.baseline)
    cand = load(args.candidate)

    for rec, name in ((base, args.baseline), (cand, args.candidate)):
        if rec.get("schema") != "spin-sweep-bench/v1":
            print(f"check_sweep_baseline: {name}: schema is "
                  f"{rec.get('schema')!r}, want 'spin-sweep-bench/v1'",
                  file=sys.stderr)
            return 2

    errors = []

    if base.get("spec") != cand.get("spec"):
        errors.append(f"spec mismatch: baseline ran "
                      f"{base.get('spec')!r}, candidate "
                      f"{cand.get('spec')!r}")

    bcells = digest_cells(base, args.baseline)
    ccells = digest_cells(cand, args.candidate)
    for missing in sorted(bcells.keys() - ccells.keys()):
        errors.append(f"cell missing from candidate: {missing}")
    for extra in sorted(ccells.keys() - bcells.keys()):
        errors.append(f"cell not in baseline: {extra}")

    for cell in sorted(bcells.keys() & ccells.keys()):
        b, c = bcells[cell], ccells[cell]
        for field in DIGEST_FIELDS:
            if not close(b.get(field), c.get(field), args.rtol):
                errors.append(
                    f"{cell}: {field} drifted "
                    f"{b.get(field)!r} -> {c.get(field)!r}")

    if errors:
        print(f"FAIL: {len(errors)} mismatch(es) vs {args.baseline}:")
        for e in errors:
            print(f"  {e}")
        print("If the simulation change is intentional, regenerate the "
              "baseline (see EXPERIMENTS.md) and commit it.")
        return 1

    print(f"OK: {len(bcells)} digest cells match within "
          f"rtol={args.rtol:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
