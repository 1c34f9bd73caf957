#!/usr/bin/env python3
"""Docs drift checker (the CI docs-check job).

Four gates, all against the working tree — no build needed:

1. **Flag coverage** — every CLI flag a front-end parses (the name of
   each ``ArgSpec`` row: ``argU64("--seed", ...)``) must appear in that
   front-end's documentation page(s). A flag added to the code without
   a docs mention, or a flag renamed in code but not in docs, fails
   here. The source → page mapping lives in ``FLAG_TARGETS`` below;
   extend it when adding a new CLI surface.

2. **Link integrity** — every intra-repo markdown link
   (``[text](relative/path)``) in the repo's documentation must
   resolve to an existing file. External (``http...``), anchor-only
   (``#...``) and ``mailto:`` links are ignored; ``path#anchor`` is
   checked for the file part only.

3. **Fault kinds** — every row of ``kFaultKindNames``
   (``src/fault/FaultSchedule.hh``) is documented: its kind name,
   backticked, in ``docs/FAULTS.md``, and its trace event (a macro row
   has none) in ``docs/FAULTS.md`` or ``docs/OBSERVABILITY.md``.

4. **Model-checker example** — every ``N runs, N states, N pruned,
   N choice points, N cycles`` row of the ``$ spin_model --budget 1``
   example in ``docs/VERIFICATION.md`` shows all five counts and each
   equals its scenario's entry in ``tools/MODEL_baseline.json`` (the CI
   baseline), and every baseline scenario has such a row.

Exit codes: 0 clean, 2 drift detected (the CI gate), 3 setup error
(missing files — the checker itself is misconfigured).

Usage:
    python3 tools/check_docs.py [--root REPO_ROOT]
"""

import argparse
import json
import os
import re
import sys

# Each entry: (source file with ArgSpec rows,
#              pages where those flags must be documented).
# A flag passes when at least one of the pages mentions it verbatim.
# -h/--help is generated by exp::parseCommandLine, not a row of any
# source here.
FLAG_TARGETS = [
    ("tools/spin_sweep.cc", ["docs/SWEEP.md"]),
    ("tools/spin_lint.cc", ["docs/VERIFICATION.md"]),
    ("tools/spin_model.cc", ["docs/VERIFICATION.md"]),
    # The shared run flags (exp::RunOptions::flags()); spin_sweep and
    # every bench accept a subset of them.
    ("src/exp/RunOptions.cc",
     ["EXPERIMENTS.md", "README.md", "docs/SWEEP.md"]),
    ("examples/spin_sim.cpp", ["README.md"]),
    ("examples/deadlock_anatomy.cpp", ["README.md"]),
]

# Documentation scanned for links: every tracked .md at the repo root
# and under docs/.
LINK_DIRS = [".", "docs"]

# The name of an ArgSpec row constructor, after an optional short
# alias: 'argU64("--seed", ...)', 'argInt("-j, --jobs", ...)'. Flags
# quoted anywhere else (help text, usage errors, the accepted subsets a
# bench passes to RunOptions::flags) are not rows and never match.
FLAG_RE = re.compile(
    r'\barg(?:U64|Int|F64|Str|Flag)\(\s*"(?:-[a-zA-Z], )?'
    r'(--[a-z][a-z0-9-]*)"')

# The fault kind table and the pages that document its rows: kind
# names in the first, applied-event names in any of them.
FAULT_TABLE = "src/fault/FaultSchedule.hh"
FAULT_PAGES = ["docs/FAULTS.md", "docs/OBSERVABILITY.md"]

# One kFaultKindNames row: {FaultKind::X, "name", FaultTarget::T,
# FaultEffect::E, "event" | nullptr}, possibly across lines.
FAULT_ROW_RE = re.compile(
    r'\{\s*FaultKind::\w+\s*,\s*"([^"]+)"\s*,\s*FaultTarget::\w+\s*,'
    r'\s*FaultEffect::\w+\s*,\s*(?:"([^"]+)"|nullptr)\s*\}')

# The example run of `spin_model --budget 1`: the fenced block after
# its prompt line, the row spin_model prints per scenario
# ("ring4  33 runs,  340 states, ..."), and each of its counts.
MODEL_DOC = "docs/VERIFICATION.md"
MODEL_BASELINE = "tools/MODEL_baseline.json"
MODEL_BLOCK_RE = re.compile(r"^\$ spin_model --budget 1\n(.*?)^```",
                            re.M | re.S)
MODEL_ROW_RE = re.compile(r"^(\S+) +(\d+ runs,.*)$", re.M)
MODEL_COUNT_RE = re.compile(r"(\d+) (runs|states|pruned|choice points|"
                            r"cycles)\b")
# Row label -> baseline key.
MODEL_FIELDS = {"runs": "runs", "states": "statesVisited",
                "pruned": "prunedRuns", "choice points": "choicePoints",
                "cycles": "cyclesSimulated"}

# [text](target) markdown links, ignoring images' leading '!' (still a
# path worth checking) and fenced ``` blocks handled by the caller.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def fail_setup(msg):
    print(f"check_docs: {msg}", file=sys.stderr)
    sys.exit(3)


def read(path):
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        fail_setup(f"cannot read {path}: {e}")


def check_flags(root):
    """Returns (errors, {source: number of flags checked})."""
    errors, counts = [], {}
    for src, pages in FLAG_TARGETS:
        src_path = os.path.join(root, src)
        if not os.path.exists(src_path):
            fail_setup(f"{src} vanished; update FLAG_TARGETS")
        flags = sorted(set(FLAG_RE.findall(read(src_path))))
        if not flags:
            fail_setup(f"{src} has no ArgSpec rows; update FLAG_TARGETS")
        counts[src] = len(flags)
        docs = ""
        for page in pages:
            page_path = os.path.join(root, page)
            if not os.path.exists(page_path):
                fail_setup(f"{page} vanished; update FLAG_TARGETS")
            docs += read(page_path)
        for flag in flags:
            if flag not in docs:
                errors.append(
                    f"{src}: flag '{flag}' is not documented in "
                    f"{' or '.join(pages)}")
    return errors, counts


def check_fault_kinds(root):
    """Returns (errors, number of kinds checked, number of events)."""
    path = os.path.join(root, FAULT_TABLE)
    if not os.path.exists(path):
        fail_setup(f"{FAULT_TABLE} vanished; update FAULT_TABLE")
    rows = FAULT_ROW_RE.findall(read(path))
    if not rows:
        fail_setup(f"{FAULT_TABLE} has no kFaultKindNames rows; update "
                   "FAULT_ROW_RE")
    pages = {}
    for page in FAULT_PAGES:
        page_path = os.path.join(root, page)
        if not os.path.exists(page_path):
            fail_setup(f"{page} vanished; update FAULT_PAGES")
        pages[page] = read(page_path)
    errors = []
    events = [event for _, event in rows if event]
    for kind, _ in rows:
        if f"`{kind}`" not in pages[FAULT_PAGES[0]]:
            errors.append(f"fault kind '{kind}' is not documented in "
                          f"{FAULT_PAGES[0]}")
    for event in events:
        if not any(f"`{event}`" in text for text in pages.values()):
            errors.append(f"fault trace event '{event}' is not documented "
                          f"in {' or '.join(FAULT_PAGES)}")
    return errors, len(rows), len(events)


def check_model_example(root):
    """Returns (errors, number of rows checked)."""
    doc = read(os.path.join(root, MODEL_DOC))
    block = MODEL_BLOCK_RE.search(doc)
    if not block:
        fail_setup(f"{MODEL_DOC} has no '$ spin_model --budget 1' block; "
                   "update MODEL_BLOCK_RE")
    try:
        baseline = json.loads(read(os.path.join(root, MODEL_BASELINE)))
        want = {e["scenario"]: e for e in baseline["scenarios"]}
    except (ValueError, KeyError, TypeError) as e:
        fail_setup(f"cannot read the scenarios of {MODEL_BASELINE}: {e}")
    rows = MODEL_ROW_RE.findall(block.group(1))
    errors = []
    for name, row in rows:
        entry = want.get(name)
        if entry is None:
            errors.append(f"{MODEL_DOC}: '{name}' is not a scenario of "
                          f"{MODEL_BASELINE}")
            continue
        counts = {label: int(n) for n, label in MODEL_COUNT_RE.findall(row)}
        for label, key in MODEL_FIELDS.items():
            if label not in counts:
                errors.append(f"{MODEL_DOC}: the {name} row has no "
                              f"'{label}' count")
            elif counts[label] != entry[key]:
                errors.append(f"{MODEL_DOC}: the {name} row shows "
                              f"{counts[label]} {label}; "
                              f"{MODEL_BASELINE} has {entry[key]}")
    shown = {name for name, _ in rows}
    for name in want:
        if name not in shown:
            errors.append(f"{MODEL_DOC}: the spin_model --budget 1 example "
                          f"has no row for scenario '{name}'")
    return errors, len(rows)


def md_files(root):
    out = []
    for d in LINK_DIRS:
        full = os.path.join(root, d)
        if not os.path.isdir(full):
            continue
        for name in sorted(os.listdir(full)):
            if name.endswith(".md"):
                out.append(os.path.normpath(os.path.join(full, name)))
    return out


def strip_code_blocks(text):
    """Drop fenced code blocks: command examples legitimately contain
    bracket/paren sequences that are not links."""
    out, fenced = [], False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if not fenced:
            out.append(line)
    return "\n".join(out)


def check_links(root):
    errors = []
    for md in md_files(root):
        text = strip_code_blocks(read(md))
        base = os.path.dirname(md)
        for target in LINK_RE.findall(text):
            if target.startswith(("http://", "https://", "mailto:",
                                  "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = os.path.normpath(os.path.join(base, path))
            if not os.path.exists(resolved):
                rel = os.path.relpath(md, root)
                errors.append(f"{rel}: broken link '{target}'")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=None,
                    help="repo root (default: the checker's parent "
                         "directory)")
    args = ap.parse_args()
    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))

    flag_errors, counts = check_flags(root)
    # Per-surface counts, so a flag that silently leaves the check
    # (a constructor FLAG_RE does not match) shows as a drop.
    for src, n in counts.items():
        print(f"check_docs: {n:3d} flags checked in {src}")
    # Counted too, so a row FAULT_ROW_RE stops matching shows as a drop.
    fault_errors, n_kinds, n_events = check_fault_kinds(root)
    print(f"check_docs: {n_kinds:3d} fault kinds and {n_events} applied "
          f"events checked in {FAULT_TABLE}")
    # And so is every example row MODEL_ROW_RE reads.
    model_errors, n_rows = check_model_example(root)
    print(f"check_docs: {n_rows:3d} model-checker rows checked in "
          f"{MODEL_DOC}")
    errors = (flag_errors + fault_errors + model_errors +
              check_links(root))
    if errors:
        print(f"check_docs: {len(errors)} drift issue(s):")
        for e in errors:
            print(f"  {e}")
        print("Document the flag on the binary's page (see "
              "FLAG_TARGETS in tools/check_docs.py), the fault kind or "
              "event (FAULT_PAGES), paste a fresh spin_model --budget 1 "
              "run into MODEL_DOC, or fix the link.")
        return 2

    n_targets = len(FLAG_TARGETS)
    n_md = len(md_files(root))
    print(f"check_docs: OK ({n_targets} CLI surfaces, {n_md} markdown "
          f"files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
