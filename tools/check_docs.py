#!/usr/bin/env python3
"""Docs drift checker (the CI docs-check job).

Two gates, both against the working tree — no build needed:

1. **Flag coverage** — every CLI flag a bench or tool actually parses
   (the quoted ``--flag`` names in its ``ArgSpec`` rows) must appear
   in that binary's documentation page(s). A flag added to the code
   without a docs mention, or a flag renamed in code but not in docs,
   fails here. The source → page mapping lives
   in ``FLAG_TARGETS`` below; extend it when adding a new CLI surface.

2. **Link integrity** — every intra-repo markdown link
   (``[text](relative/path)``) in the repo's documentation must
   resolve to an existing file. External (``http...``), anchor-only
   (``#...``) and ``mailto:`` links are ignored; ``path#anchor`` is
   checked for the file part only.

Exit codes: 0 clean, 2 drift detected (the CI gate), 3 setup error
(missing files — the checker itself is misconfigured).

Usage:
    python3 tools/check_docs.py [--root REPO_ROOT]
"""

import argparse
import os
import re
import sys

# Each entry: (source file with the ArgSpec/usage strings,
#              pages where those flags must be documented,
#              flags exempt from the requirement).
# A flag passes when at least one of the pages mentions it verbatim.
GENERIC = {"--help"}
FLAG_TARGETS = [
    ("tools/spin_sweep.cc",
     ["docs/SWEEP.md"], GENERIC),
    ("tools/spin_lint.cc",
     ["docs/VERIFICATION.md"], GENERIC),
    ("tools/spin_model.cc",
     ["docs/VERIFICATION.md"], GENERIC),
    # Every bench flag is one row of bench::Options::flags() in
    # BenchUtil.hh, documented in the regeneration guide.
    ("bench/BenchUtil.hh",
     ["EXPERIMENTS.md", "README.md"], GENERIC),
]

# Documentation scanned for links: every tracked .md at the repo root
# and under docs/.
LINK_DIRS = [".", "docs"]

# "--flag" opening a C string literal, after an optional short alias:
# ArgSpec rows quote their names exactly ('argU64("--seed", ...)',
# 'argU64("-j, --jobs", ...)'), so quoted occurrences are precise —
# prose em-dashes ("a -- b") and flags mentioned inside help text never
# match.
FLAG_RE = re.compile(r'"(?:-[a-zA-Z], )?(--[a-z][a-z0-9-]*)')

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
    errors = []
    for src, pages, exempt in FLAG_TARGETS:
        src_path = os.path.join(root, src)
        if not os.path.exists(src_path):
            fail_setup(f"{src} vanished; update FLAG_TARGETS")
        flags = sorted(set(FLAG_RE.findall(read(src_path))) - exempt)
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
    return errors


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

    errors = check_flags(root) + check_links(root)
    if errors:
        print(f"check_docs: {len(errors)} drift issue(s):")
        for e in errors:
            print(f"  {e}")
        print("Document the flag on the binary's page (see "
              "FLAG_TARGETS in tools/check_docs.py) or fix the link.")
        return 2

    n_targets = len(FLAG_TARGETS)
    n_md = len(md_files(root))
    print(f"check_docs: OK ({n_targets} CLI surfaces, {n_md} markdown "
          f"files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
