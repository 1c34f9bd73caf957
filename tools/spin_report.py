#!/usr/bin/env python3
"""Render SPIN observability data into a self-contained HTML report.

Inputs (all optional, at least one required):

* ``--metrics m.jsonl``  -- a spin-metrics/v2 stream (bench --metrics or
  spin_sweep --metrics): windowed time series per cell.
* ``--sweep results.json`` -- a spin-sweep/v1 aggregate: campaign
  heatmaps over the preset x pattern x rate grid.
* ``--stats s.json``  -- any bench/telemetry JSON; scanned recursively
  for deadlock forensics snapshots and applied fault events, which
  become chart markers (single-cell metrics) or an event table.

The output is one HTML file with inline SVG -- no external assets, no
third-party libraries, works from file://. Charts carry a hover
crosshair + tooltip, keyboard navigation, and a table-view twin.

Typical use:

    build/tools/spin_sweep --spec fig07 --fast --no-cells \
        --metrics m.jsonl --json s.json
    tools/spin_report.py --metrics m.jsonl --sweep s.json -o report.html
"""

import argparse
import html
import json
import math
import sys

SCHEMA_METRICS = "spin-metrics/v2"
SCHEMA_SWEEP = "spin-sweep/v1"

# Categorical slots (validated order; light / dark steps per mode).
# Aqua and yellow sit below 3:1 on the light surface, so every chart
# ships a table view (the relief rule).
LIGHT_SERIES = ["#2a78d6", "#eb6834", "#1baf7a", "#eda100"]
DARK_SERIES = ["#3987e5", "#d95926", "#199e70", "#c98500"]

# Sequential ramps for the heatmaps: blue for throughput; latency (a
# second sequential context on the same page) takes the next slot's
# hue, orange, as its own light->dark ramp.
BLUE_RAMP = ["#cde2fb", "#b7d3f6", "#9ec5f4", "#86b6ef", "#6da7ec",
             "#5598e7", "#3987e5", "#2a78d6", "#256abf", "#1c5cab",
             "#184f95", "#104281", "#0d366b"]
ORANGE_RAMP = ["#fbe0d4", "#f8cdb9", "#f5ba9e", "#f2a783", "#ef9468",
               "#eb6834", "#d95926", "#c24e20", "#a8431b", "#8e3816",
               "#742d11"]
# Ink flips to white once the ramp is dark enough for 4.5:1.
BLUE_INK_FLIP = 6
ORANGE_INK_FLIP = 5

FAULT_COUNTERS = ("faults.linksFailed", "faults.routersFailed",
                  "faults.transientFaults", "faults.packetsLostToFaults",
                  "faults.packetsCorrupted")
# End-to-end reliability protocol activity (docs/FAULTS.md): every
# counter the stream header publishes under this prefix is summed into
# its own KPI tile so a chaos run shows recovery work at a glance.
RELIABILITY_PREFIX = "reliability."


def esc(s):
    return html.escape(str(s), quote=True)


def fmt(v):
    """Compact human number for labels and tables."""
    if v is None:
        return "-"
    if isinstance(v, float):
        if v == 0:
            return "0"
        if abs(v) >= 1000:
            return f"{v:,.0f}"
        if abs(v) >= 10:
            return f"{v:.1f}"
        return f"{v:.3g}"
    return f"{v:,}"


def nice_ticks(lo, hi, target=5):
    """Clean tick positions (1/2/5 x 10^k) covering [lo, hi]."""
    if hi <= lo:
        hi = lo + 1
    span = hi - lo
    raw = span / max(target, 1)
    mag = 10 ** math.floor(math.log10(raw))
    for mult in (1, 2, 5, 10):
        step = mult * mag
        if span / step <= target:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + step * 1e-9:
        ticks.append(round(t, 10))
        t += step
    return ticks


# ---------------------------------------------------------------- inputs


def load_metrics(path):
    """Parse a spin-metrics/v2 JSONL into {label: stream dict}."""
    streams = {}
    try:
        f = open(path)
    except OSError as e:
        sys.exit(f"spin_report: cannot read {path}: {e}")
    with f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError as e:
                sys.exit(f"spin_report: {path}:{lineno}: bad JSON: {e}")
            if rec.get("schema") != SCHEMA_METRICS:
                sys.exit(f"spin_report: {path}:{lineno}: schema "
                         f"{rec.get('schema')!r}, want {SCHEMA_METRICS!r} "
                         "(run tools/check_metrics_schema.py)")
            label = rec.get("cell", "")
            s = streams.setdefault(label, {"label": label, "header": None,
                                           "windows": [], "beginCycle": None})
            kind = rec.get("kind")
            if kind == "header":
                s["header"] = rec
            elif kind == "window":
                s["windows"].append(rec)
            elif kind == "measurement-begin":
                s["beginCycle"] = rec.get("cycle")
    return streams


def load_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"spin_report: cannot read {what} {path}: {e}")


def scan_events(doc):
    """Recursively pull forensics deadlock loops and applied faults out
    of any bench/telemetry JSON document."""
    deadlocks, faults = [], []

    def walk(node):
        if isinstance(node, dict):
            forensics = node.get("forensics")
            if isinstance(forensics, dict):
                for snap in forensics.get("snapshots", []):
                    if isinstance(snap, dict) and "cycle" in snap:
                        deadlocks.append(snap)
            fl = node.get("faults")
            if isinstance(fl, dict):
                for ev in fl.get("applied", []):
                    if isinstance(ev, dict) and "cycle" in ev:
                        faults.append(ev)
            for v in node.values():
                walk(v)
        elif isinstance(node, list):
            for v in node:
                walk(v)

    walk(doc)
    deadlocks.sort(key=lambda s: s.get("cycle", 0))
    faults.sort(key=lambda s: s.get("cycle", 0))
    return deadlocks, faults


# ------------------------------------------------------------ line chart

CHART_W, CHART_H = 760, 240
ML, MR, MT, MB = 64, 16, 18, 34
PW, PH = CHART_W - ML - MR, CHART_H - MT - MB

_chart_seq = 0


def line_chart(title, xs, series, y_label, markers=(), x_label="cycle"):
    """One SVG line chart.

    series:  [(name, values, css_class)]
    markers: [(x, kind, text)] with kind in spin|fault|deadlock
    Returns (chart html, table html).
    """
    global _chart_seq
    _chart_seq += 1
    cid = f"c{_chart_seq}"

    xlo, xhi = min(xs), max(xs)
    if xhi == xlo:
        xhi = xlo + 1
    vals = [v for _, vv, _ in series for v in vv if v is not None]
    ylo = 0.0
    yhi = max(vals) if vals else 1.0
    if yhi <= ylo:
        yhi = ylo + 1
    yticks = nice_ticks(ylo, yhi)
    yhi = max(yhi, yticks[-1])

    def X(x):
        return ML + (x - xlo) / (xhi - xlo) * PW

    def Y(v):
        return MT + PH - (v - ylo) / (yhi - ylo) * PH

    out = [f'<figure class="chart" id="{cid}">',
           f'<figcaption>{esc(title)}</figcaption>',
           f'<svg viewBox="0 0 {CHART_W} {CHART_H}" role="img" '
           f'aria-label="{esc(title)}" tabindex="0">']
    for t in yticks:
        y = Y(t)
        out.append(f'<line class="grid" x1="{ML}" y1="{y:.1f}" '
                   f'x2="{ML + PW}" y2="{y:.1f}"/>')
        out.append(f'<text class="tick" x="{ML - 6}" y="{y + 3.5:.1f}" '
                   f'text-anchor="end">{esc(fmt(t))}</text>')
    for t in nice_ticks(xlo, xhi, 6):
        if t < xlo or t > xhi:
            continue
        x = X(t)
        out.append(f'<text class="tick" x="{x:.1f}" '
                   f'y="{MT + PH + 14}" text-anchor="middle">'
                   f'{esc(fmt(t))}</text>')
    out.append(f'<line class="axis" x1="{ML}" y1="{MT + PH}" '
               f'x2="{ML + PW}" y2="{MT + PH}"/>')
    out.append(f'<text class="tick" x="{ML + PW}" y="{MT + PH + 26}" '
               f'text-anchor="end">{esc(x_label)}</text>')
    out.append(f'<text class="tick" x="{ML - 6}" y="{MT - 6}" '
               f'text-anchor="end">{esc(y_label)}</text>')

    for x, kind, _txt in markers:
        px = X(x)
        out.append(f'<line class="mark-{kind}" x1="{px:.1f}" y1="{MT}" '
                   f'x2="{px:.1f}" y2="{MT + PH}"/>')
        out.append(f'<path class="mark-{kind}-glyph" d="M {px - 4:.1f} '
                   f'{MT} L {px + 4:.1f} {MT} L {px:.1f} {MT + 7} Z"/>')

    for name, vv, cls in series:
        pts = [f"{X(x):.1f},{Y(v):.1f}"
               for x, v in zip(xs, vv) if v is not None]
        if pts:
            out.append(f'<polyline class="line {cls}" '
                       f'points="{" ".join(pts)}"/>')
        # end marker (>=8px, surface ring) + selective end label
        last = next((i for i in range(len(vv) - 1, -1, -1)
                     if vv[i] is not None), None)
        if last is not None:
            out.append(f'<circle class="dot {cls}" cx="{X(xs[last]):.1f}" '
                       f'cy="{Y(vv[last]):.1f}" r="4"/>')
    out.append(f'<line class="cross" x1="0" y1="{MT}" x2="0" '
               f'y2="{MT + PH}" style="display:none"/>')
    out.append("</svg>")

    if len(series) >= 2:
        keys = "".join(
            f'<span class="key"><span class="swatch {cls}"></span>'
            f'{esc(name)}</span>' for name, _, cls in series)
        out.append(f'<div class="legend">{keys}</div>')

    payload = {
        "xs": [round(X(x), 1) for x in xs],
        "xv": xs,
        "series": [{"name": n, "cls": c,
                    "vals": [None if v is None else round(v, 4)
                             for v in vv]}
                   for n, vv, c in series],
        "markers": [{"x": x, "kind": k, "text": t} for x, k, t in markers],
    }
    out.append(f'<script type="application/json">'
               f'{json.dumps(payload)}</script>')
    out.append("</figure>")

    rows = []
    for i, x in enumerate(xs):
        cells = "".join(f"<td>{esc(fmt(vv[i]))}</td>" for _, vv, _ in series)
        note = "; ".join(t for mx, _, t in markers if mx == x)
        rows.append(f"<tr><td>{esc(fmt(x))}</td>{cells}"
                    f"<td>{esc(note)}</td></tr>")
    heads = "".join(f"<th>{esc(n)}</th>" for n, _, _ in series)
    table = (f'<details><summary>Table view: {esc(title)}</summary>'
             f'<table><thead><tr><th>{esc(x_label)}</th>{heads}'
             f"<th>events</th></tr></thead><tbody>"
             f'{"".join(rows)}</tbody></table></details>')
    return "".join(out), table


# --------------------------------------------------------------- heatmap


def heatmap(title, row_labels, col_labels, grid, ramp, ink_flip,
            log_scale=False, flags=None, note=""):
    """An HTML-table heatmap on a sequential one-hue ramp.

    grid[r][c] is a value or None; flags[r][c] truthy appends a dagger
    (used for saturated cells)."""
    vals = [v for row in grid for v in row if v is not None]
    if not vals:
        return ""
    lo, hi = min(vals), max(vals)

    def shade(v):
        if hi == lo:
            return 0
        if log_scale and lo > 0:
            f = (math.log10(v) - math.log10(lo)) / \
                (math.log10(hi) - math.log10(lo))
        else:
            f = (v - lo) / (hi - lo)
        return min(len(ramp) - 1, max(0, int(round(f * (len(ramp) - 1)))))

    out = [f'<figure class="heat"><figcaption>{esc(title)}</figcaption>',
           "<table><thead><tr><th></th>"]
    out += [f"<th>{esc(c)}</th>" for c in col_labels]
    out.append("</tr></thead><tbody>")
    for r, rl in enumerate(row_labels):
        out.append(f'<tr><th scope="row">{esc(rl)}</th>')
        for c in range(len(col_labels)):
            v = grid[r][c]
            if v is None:
                out.append("<td></td>")
                continue
            step = shade(v)
            ink = "#ffffff" if step >= ink_flip else "#0b0b0b"
            dag = "†" if flags and flags[r][c] else ""
            out.append(
                f'<td class="cell" style="background:{ramp[step]};'
                f'color:{ink}" tabindex="0" data-row="{esc(rl)}" '
                f'data-col="{esc(col_labels[c])}" '
                f'data-val="{esc(fmt(v))}{dag}">{esc(fmt(v))}{dag}</td>')
        out.append("</tr>")
    out.append("</tbody></table>")
    scale = "log" if log_scale else "linear"
    out.append(f'<div class="note">{esc(note)} Shade: light = '
               f"{esc(fmt(lo))}, dark = {esc(fmt(hi))} ({scale} scale)."
               "</div>")
    out.append("</figure>")
    return "".join(out)


# -------------------------------------------------------------- sections


def stream_markers(windows, deadlocks, faults, single_stream):
    """Per-window event markers from counter deltas, plus forensics /
    fault-injector events when they can be attributed (one stream)."""
    markers = []
    for w in windows:
        x = w["cycleEnd"]
        spins = w["counters"].get("spin.spins", 0)
        if spins:
            markers.append((x, "spin", f"{spins} spin(s) in window"))
        nfaults = sum(w["counters"].get(k, 0) for k in FAULT_COUNTERS)
        if nfaults:
            markers.append((x, "fault", f"{nfaults} fault event(s)"))
    if single_stream:
        for ev in faults:
            markers.append((ev["cycle"], "fault",
                            ev.get("event", ev.get("kind", "fault"))))
        for snap in deadlocks:
            markers.append((snap["cycle"], "deadlock",
                            f"deadlock loop, vnet {snap.get('vnet', '?')}"))
    markers.sort(key=lambda m: m[0])
    return markers


def render_stream(stream, deadlocks, faults, single_stream):
    windows = stream["windows"]
    if not windows:
        return ""
    xs = [w["cycleEnd"] for w in windows]
    markers = stream_markers(windows, deadlocks, faults, single_stream)

    blocks, tables = [], []
    c, t = line_chart("Throughput", xs,
                      [("throughput", [w["derived"]["throughput"]
                                       for w in windows], "s0")],
                      "flits/node/cycle", markers)
    blocks.append(c)
    tables.append(t)

    c, t = line_chart(
        "Packet latency", xs,
        [("avg", [w["derived"]["latencyAvg"] for w in windows], "s0"),
         ("p50", [w["derived"]["latencyP50"] for w in windows], "s1"),
         ("p99", [w["derived"]["latencyP99"] for w in windows], "s2")],
        "cycles", markers)
    blocks.append(c)
    tables.append(t)

    gauges = stream["header"]["gauges"] if stream["header"] else []
    occ = [g for g in gauges if g.startswith("occupancy.vnet")]
    dropped = occ[3:]
    series = [(g.split(".", 1)[1],
               [w["gauges"].get(g) for w in windows], f"s{i}")
              for i, g in enumerate(occ[:3])]
    if "occupancy.total" in gauges:
        series.append(("total", [w["gauges"].get("occupancy.total")
                                 for w in windows], "muted"))
    if series:
        c, t = line_chart("VC occupancy (buffered flits)", xs, series,
                          "flits", markers)
        blocks.append(c)
        tables.append(t)

    label = stream["label"] or "(unlabeled)"
    parts = [f"<section><h3>{esc(label)}</h3>"]
    if stream["beginCycle"] is not None:
        parts.append(f'<div class="note">Measurement begins at cycle '
                     f'{fmt(stream["beginCycle"])}; windowed series reset '
                     "there (warmup discarded).</div>")
    if dropped:
        parts.append(f'<div class="note">Occupancy chart shows the first '
                     f"3 of {len(occ)} vnets; {esc(', '.join(dropped))} "
                     "remain in the table view.</div>")
    parts += blocks + tables + ["</section>"]
    return "".join(parts)


def pick_streams(streams, max_cells, substr):
    """Rank streams: most events first, then most windows."""
    def score(s):
        spins = sum(w["counters"].get("spin.spins", 0)
                    for w in s["windows"])
        faults = sum(w["counters"].get(k, 0) for w in s["windows"]
                     for k in FAULT_COUNTERS)
        return (spins + faults, len(s["windows"]))

    picked = [s for s in streams.values()
              if s["windows"] and (not substr or substr in s["label"])]
    picked.sort(key=score, reverse=True)
    return picked[:max_cells], len(picked)


def sweep_heatmaps(doc):
    """Campaign heatmaps for one spin-sweep/v1 aggregate."""
    rows = {}
    for s in doc.get("series", []):
        key = (s.get("preset", "?"), s.get("pattern", "?"))
        rows.setdefault(key, []).append(s)
    rates = sorted({p["rate"] for ss in rows.values()
                    for s in ss for p in s.get("points", [])})
    if not rows or not rates:
        return ""
    labels = [f"{p} · {pat}" for p, pat in rows]
    lat, thr, sat = [], [], []
    for key in rows:
        lrow, trow, srow = [], [], []
        for r in rates:
            pts = [p for s in rows[key] for p in s.get("points", [])
                   if p["rate"] == r]
            if not pts:
                lrow.append(None)
                trow.append(None)
                srow.append(False)
                continue
            lrow.append(sum(p["latency"] for p in pts) / len(pts))
            trow.append(sum(p["throughput"] for p in pts) / len(pts))
            srow.append(any(p.get("saturated") for p in pts))
        lat.append(lrow)
        thr.append(trow)
        sat.append(srow)
    cols = [fmt(r) for r in rates]
    name = doc.get("spec", {}).get("name", "campaign")
    seeds = max(len(ss) for ss in rows.values())
    note = (f"Mean over {seeds} run(s) per cell; † = saturated. "
            "Columns: injection rate.")
    out = [f"<section><h3>Campaign: {esc(name)}</h3>"]
    out.append(heatmap("Average packet latency (cycles)", labels, cols,
                       lat, ORANGE_RAMP, ORANGE_INK_FLIP, log_scale=True,
                       flags=sat, note=note))
    out.append(heatmap("Accepted throughput (flits/node/cycle)", labels,
                       cols, thr, BLUE_RAMP, BLUE_INK_FLIP, flags=sat,
                       note=note))
    out.append("</section>")
    return "".join(out)


def event_table(deadlocks, faults):
    if not deadlocks and not faults:
        return ""
    rows = [(f.get("cycle", 0), "fault",
             f.get("event", f.get("kind", "fault"))) for f in faults]
    rows += [(d.get("cycle", 0), "deadlock",
              f"loop over {len(d.get('routers', []))} router(s), "
              f"vnet {d.get('vnet', '?')}") for d in deadlocks]
    rows.sort()
    body = "".join(
        f'<tr><td>{fmt(c)}</td><td><span class="badge {k}">'
        f"{esc(k)}</span></td><td>{esc(t)}</td></tr>"
        for c, k, t in rows)
    return ("<section><h3>Recorded events</h3><table class='events'>"
            "<thead><tr><th>cycle</th><th>kind</th><th>detail</th></tr>"
            f"</thead><tbody>{body}</tbody></table></section>")


def stat_tiles(streams, deadlocks, faults):
    windows = sum(len(s["windows"]) for s in streams.values())
    spins = sum(w["counters"].get("spin.spins", 0)
                for s in streams.values() for w in s["windows"])
    fevents = sum(w["counters"].get(k, 0) for s in streams.values()
                  for w in s["windows"] for k in FAULT_COUNTERS)
    relevents = sum(w["counters"].get(k, 0) for s in streams.values()
                    for k in (s["header"] or {}).get("counters", [])
                    if k.startswith(RELIABILITY_PREFIX)
                    for w in s["windows"])
    tiles = [("Cells", len(streams)), ("Windows", windows),
             ("Spins", spins),
             ("Fault events", fevents + len(faults)),
             ("Reliability events", relevents),
             ("Deadlock loops", len(deadlocks))]
    return ('<div class="kpis">' + "".join(
        f'<div class="tile"><div class="label">{esc(n)}</div>'
        f'<div class="value">{esc(fmt(v))}</div></div>'
        for n, v in tiles) + "</div>")


# ------------------------------------------------------------------ page

STYLE = """
:root {
  color-scheme: light;
  --surface: #fcfcfb; --page: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7; --border: rgba(11,11,11,0.10);
  --s0: #2a78d6; --s1: #eb6834; --s2: #1baf7a; --s3: #eda100;
  --warning: #fab219; --serious: #ec835a; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root {
    color-scheme: dark;
    --surface: #1a1a19; --page: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835; --border: rgba(255,255,255,0.10);
    --s0: #3987e5; --s1: #d95926; --s2: #199e70; --s3: #c98500;
  }
}
body { font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif;
  background: var(--page); color: var(--ink); margin: 0;
  padding: 24px; }
h1 { font-size: 20px; margin: 0 0 4px; }
h3 { font-size: 15px; margin: 24px 0 8px; }
.sub { color: var(--ink-2); margin-bottom: 16px; }
section { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 20px; margin: 16px 0; }
section h3 { margin-top: 0; }
.kpis { display: flex; gap: 12px; flex-wrap: wrap; margin: 16px 0; }
.tile { background: var(--surface); border: 1px solid var(--border);
  border-radius: 8px; padding: 10px 18px; min-width: 110px; }
.tile .label { color: var(--ink-2); font-size: 12px; }
.tile .value { font-size: 26px; font-weight: 600; }
figure.chart { margin: 12px 0 4px; }
figure.chart figcaption, figure.heat figcaption {
  font-weight: 600; margin-bottom: 4px; }
svg { width: 100%; height: auto; display: block; }
svg:focus { outline: 2px solid var(--s0); outline-offset: 2px; }
.grid { stroke: var(--grid); stroke-width: 1; }
.axis { stroke: var(--axis); stroke-width: 1; }
.tick { fill: var(--muted); font-size: 11px;
  font-variant-numeric: tabular-nums; }
.line { fill: none; stroke-width: 2; stroke-linejoin: round;
  stroke-linecap: round; }
.line.s0 { stroke: var(--s0); } .dot.s0 { fill: var(--s0); }
.line.s1 { stroke: var(--s1); } .dot.s1 { fill: var(--s1); }
.line.s2 { stroke: var(--s2); } .dot.s2 { fill: var(--s2); }
.line.s3 { stroke: var(--s3); } .dot.s3 { fill: var(--s3); }
.line.muted { stroke: var(--muted); } .dot.muted { fill: var(--muted); }
.dot { stroke: var(--surface); stroke-width: 2; }
.cross { stroke: var(--axis); stroke-width: 1; }
.mark-spin { stroke: var(--warning); stroke-width: 1; opacity: .5; }
.mark-spin-glyph { fill: var(--warning); }
.mark-fault { stroke: var(--serious); stroke-width: 1; opacity: .5; }
.mark-fault-glyph { fill: var(--serious); }
.mark-deadlock { stroke: var(--critical); stroke-width: 1; opacity: .6; }
.mark-deadlock-glyph { fill: var(--critical); }
.legend { display: flex; gap: 16px; color: var(--ink-2);
  font-size: 12px; margin: 2px 0 8px; }
.key { display: inline-flex; align-items: center; gap: 6px; }
.swatch { width: 14px; height: 2px; display: inline-block; }
.swatch.s0 { background: var(--s0); } .swatch.s1 { background: var(--s1); }
.swatch.s2 { background: var(--s2); } .swatch.s3 { background: var(--s3); }
.swatch.muted { background: var(--muted); }
.note { color: var(--ink-2); font-size: 12px; margin: 4px 0 10px; }
details { margin: 4px 0 12px; }
details summary { color: var(--ink-2); font-size: 12px; cursor: pointer; }
table { border-collapse: collapse; font-size: 12px; margin-top: 6px; }
th, td { padding: 3px 10px; text-align: right;
  font-variant-numeric: tabular-nums; }
thead th { color: var(--ink-2); font-weight: 600;
  border-bottom: 1px solid var(--axis); }
tbody tr:nth-child(even) { background: rgba(137,135,129,0.07); }
.heat td.cell { border: 2px solid var(--surface); min-width: 52px;
  cursor: default; }
.heat td.cell:hover, .heat td.cell:focus {
  outline: 2px solid var(--ink); outline-offset: -2px; }
.heat th[scope=row] { text-align: left; color: var(--ink-2);
  font-weight: 400; }
.events td:last-child { text-align: left; }
.badge { padding: 1px 8px; border-radius: 9px; font-size: 11px;
  color: #fff; }
.badge.fault { background: var(--serious); }
.badge.deadlock { background: var(--critical); }
.marker-legend { display: flex; gap: 18px; font-size: 12px;
  color: var(--ink-2); margin: 8px 0 0; }
.marker-legend .tri { display: inline-block; width: 0; height: 0;
  border-left: 5px solid transparent; border-right: 5px solid transparent;
  border-top: 8px solid; margin-right: 6px; }
#tip { position: fixed; pointer-events: none; display: none;
  background: var(--surface); border: 1px solid var(--border);
  border-radius: 6px; padding: 6px 10px; font-size: 12px;
  box-shadow: 0 2px 10px rgba(0,0,0,0.18); z-index: 10; }
#tip .row { display: flex; align-items: center; gap: 6px; }
#tip .k { width: 12px; height: 2px; }
#tip .v { font-weight: 600; }
#tip .n { color: var(--ink-2); }
"""

SCRIPT = """
(function () {
  const tip = document.createElement('div');
  tip.id = 'tip';
  document.body.appendChild(tip);
  const css = getComputedStyle(document.documentElement);

  function show(fig, data, idx, clientX, clientY) {
    const svg = fig.querySelector('svg');
    const cross = svg.querySelector('.cross');
    cross.setAttribute('x1', data.xs[idx]);
    cross.setAttribute('x2', data.xs[idx]);
    cross.style.display = '';
    tip.textContent = '';
    const head = document.createElement('div');
    head.className = 'row';
    const hv = document.createElement('span');
    hv.className = 'v';
    hv.textContent = 'cycle ' + data.xv[idx];
    head.appendChild(hv);
    tip.appendChild(head);
    for (const s of data.series) {
      if (s.vals[idx] === null) continue;
      const row = document.createElement('div');
      row.className = 'row';
      const k = document.createElement('span');
      k.className = 'k';
      k.style.background = css.getPropertyValue('--' + s.cls) ||
        'var(--muted)';
      const v = document.createElement('span');
      v.className = 'v';
      v.textContent = s.vals[idx];
      const n = document.createElement('span');
      n.className = 'n';
      n.textContent = s.name;
      row.append(k, v, n);
      tip.appendChild(row);
    }
    for (const m of data.markers) {
      if (m.x !== data.xv[idx]) continue;
      const row = document.createElement('div');
      row.className = 'row n';
      row.textContent = '\\u25b2 ' + m.text;
      tip.appendChild(row);
    }
    tip.style.display = 'block';
    const x = Math.min(clientX + 14, window.innerWidth - 180);
    tip.style.left = x + 'px';
    tip.style.top = (clientY + 14) + 'px';
  }

  function hide(fig) {
    tip.style.display = 'none';
    const cross = fig.querySelector('.cross');
    if (cross) cross.style.display = 'none';
  }

  document.querySelectorAll('figure.chart').forEach(fig => {
    const data = JSON.parse(
      fig.querySelector('script[type="application/json"]').textContent);
    const svg = fig.querySelector('svg');
    let focusIdx = -1;
    svg.addEventListener('pointermove', ev => {
      const r = svg.getBoundingClientRect();
      const sx = (ev.clientX - r.left) * (svg.viewBox.baseVal.width /
        r.width);
      let best = 0, dist = Infinity;
      data.xs.forEach((px, i) => {
        const d = Math.abs(px - sx);
        if (d < dist) { dist = d; best = i; }
      });
      show(fig, data, best, ev.clientX, ev.clientY);
    });
    svg.addEventListener('pointerleave', () => hide(fig));
    svg.addEventListener('keydown', ev => {
      if (ev.key === 'Escape') { focusIdx = -1; hide(fig); return; }
      if (ev.key !== 'ArrowLeft' && ev.key !== 'ArrowRight') return;
      ev.preventDefault();
      const n = data.xs.length;
      if (focusIdx < 0) focusIdx = ev.key === 'ArrowLeft' ? n - 1 : 0;
      else focusIdx = ev.key === 'ArrowLeft'
        ? Math.max(0, focusIdx - 1) : Math.min(n - 1, focusIdx + 1);
      const r = svg.getBoundingClientRect();
      show(fig, data, focusIdx, r.left + 40, r.top + 40);
    });
    svg.addEventListener('blur', () => { focusIdx = -1; hide(fig); });
  });

  document.querySelectorAll('.heat td.cell').forEach(td => {
    function showCell(ev) {
      tip.textContent = '';
      const v = document.createElement('div');
      v.className = 'v';
      v.textContent = td.dataset.val;
      const n = document.createElement('div');
      n.className = 'n';
      n.textContent = td.dataset.row + ' @ rate ' + td.dataset.col;
      tip.append(v, n);
      tip.style.display = 'block';
      const r = td.getBoundingClientRect();
      tip.style.left = Math.min(ev.clientX || r.right,
        window.innerWidth - 180) + 'px';
      tip.style.top = ((ev.clientY || r.top) + 14) + 'px';
    }
    td.addEventListener('pointermove', showCell);
    td.addEventListener('focus', showCell);
    td.addEventListener('pointerleave', () => tip.style.display = 'none');
    td.addEventListener('blur', () => tip.style.display = 'none');
  });
})();
"""

MARKER_LEGEND = (
    '<div class="marker-legend">'
    '<span><span class="tri" style="border-top-color:var(--warning)">'
    "</span>spins in window</span>"
    '<span><span class="tri" style="border-top-color:var(--serious)">'
    "</span>fault events</span>"
    '<span><span class="tri" style="border-top-color:var(--critical)">'
    "</span>deadlock loop (forensics)</span></div>")


def main():
    ap = argparse.ArgumentParser(
        description="Render SPIN metrics/sweep/forensics data as a "
                    "self-contained HTML report.")
    ap.add_argument("--metrics", help="spin-metrics/v2 JSONL")
    ap.add_argument("--sweep", help="spin-sweep/v1 results JSON")
    ap.add_argument("--stats", help="bench/telemetry JSON scanned for "
                                    "forensics + fault events")
    ap.add_argument("-o", "--out", default="spin-report.html",
                    help="output HTML path (default %(default)s)")
    ap.add_argument("--max-cells", type=int, default=6,
                    help="time-series sections to render "
                         "(default %(default)s)")
    ap.add_argument("--cells", default="",
                    help="only cells whose label contains this substring")
    ap.add_argument("--title", default="SPIN simulation report")
    args = ap.parse_args()
    if not (args.metrics or args.sweep or args.stats):
        ap.error("need at least one of --metrics, --sweep, --stats")

    streams = load_metrics(args.metrics) if args.metrics else {}
    deadlocks, faults = [], []
    if args.stats:
        deadlocks, faults = scan_events(load_json(args.stats, "--stats"))

    body = [f"<h1>{esc(args.title)}</h1>"]
    inputs = ", ".join(p for p in (args.metrics, args.sweep, args.stats)
                       if p)
    body.append(f'<div class="sub">Inputs: {esc(inputs)}</div>')
    body.append(stat_tiles(streams, deadlocks, faults))

    if streams:
        picked, matched = pick_streams(streams, args.max_cells, args.cells)
        single = len(streams) == 1
        if matched > len(picked):
            body.append(
                f'<div class="note">Showing {len(picked)} of {matched} '
                "cells (ranked by spin/fault events, then windows); "
                "re-run with --max-cells or --cells for others.</div>")
        body.append(MARKER_LEGEND)
        for s in picked:
            body.append(render_stream(s, deadlocks, faults, single))

    if args.sweep:
        doc = load_json(args.sweep, "--sweep")
        schema = doc.get("schema")
        if schema != SCHEMA_SWEEP:
            sys.exit(f"spin_report: {args.sweep}: schema {schema!r}, "
                     f"want {SCHEMA_SWEEP!r}")
        body.append(sweep_heatmaps(doc))

    body.append(event_table(deadlocks, faults))

    page = ("<!DOCTYPE html><html lang=\"en\"><head>"
            "<meta charset=\"utf-8\">"
            "<meta name=\"viewport\" content=\"width=device-width, "
            "initial-scale=1\">"
            f"<title>{esc(args.title)}</title>"
            f"<style>{STYLE}</style></head><body>"
            + "".join(body)
            + f"<script>{SCRIPT}</script></body></html>")
    try:
        with open(args.out, "w") as f:
            f.write(page)
    except OSError as e:
        sys.exit(f"spin_report: cannot write {args.out}: {e}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
