"""The static single-page dashboard ``repro-bench serve`` ships.

One self-contained HTML document (no external assets, no CDN): vanilla
JS fetches the JSON API (``/runs``, ``/history/<metric>``,
``/diff/<a>/<b>``) and renders stat tiles, inline-SVG sparklines of the
load trajectories, the run table, and a two-run diff panel.
Colors follow a small role-based token set with selected light and
dark values; series identity uses one categorical hue (single-series
sparklines need no legend), and pass/fail wears the reserved status
colors with a textual label, never color alone.
"""

from __future__ import annotations

DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro run store</title>
<style>
  :root {
    color-scheme: light;
    --surface-1: #fcfcfb;
    --surface-2: #f1f0ee;
    --border: #d8d7d3;
    --text-primary: #0b0b0b;
    --text-secondary: #52514e;
    --series-1: #2a78d6;
    --status-good: #008300;
    --status-serious: #e34948;
  }
  @media (prefers-color-scheme: dark) {
    :root {
      color-scheme: dark;
      --surface-1: #1a1a19;
      --surface-2: #242422;
      --border: #3c3b38;
      --text-primary: #ffffff;
      --text-secondary: #c3c2b7;
      --series-1: #3987e5;
      --status-good: #008300;
      --status-serious: #e66767;
    }
  }
  * { box-sizing: border-box; }
  body {
    margin: 0; padding: 24px; background: var(--surface-1);
    color: var(--text-primary);
    font: 14px/1.45 ui-sans-serif, system-ui, sans-serif;
  }
  h1 { font-size: 20px; margin: 0 0 4px; }
  .sub { color: var(--text-secondary); margin: 0 0 20px; }
  .tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 20px; }
  .tile {
    background: var(--surface-2); border: 1px solid var(--border);
    border-radius: 8px; padding: 10px 16px; min-width: 110px;
  }
  .tile .n { font-size: 22px; font-variant-numeric: tabular-nums; }
  .tile .k { color: var(--text-secondary); font-size: 12px; }
  .cards { display: flex; flex-wrap: wrap; gap: 16px; margin-bottom: 24px; }
  .card {
    background: var(--surface-2); border: 1px solid var(--border);
    border-radius: 8px; padding: 12px 16px; flex: 1 1 260px; max-width: 420px;
  }
  .card h2 { font-size: 13px; margin: 0 0 2px; }
  .card .meta { color: var(--text-secondary); font-size: 12px; margin-bottom: 6px; }
  svg.spark { display: block; width: 100%; height: 56px; }
  svg.spark polyline { fill: none; stroke: var(--series-1); stroke-width: 2; }
  svg.spark circle { fill: var(--series-1); stroke: var(--surface-2); stroke-width: 2; }
  table { border-collapse: collapse; width: 100%; margin-bottom: 24px; }
  th, td {
    text-align: left; padding: 6px 10px; border-bottom: 1px solid var(--border);
    font-variant-numeric: tabular-nums; vertical-align: top;
  }
  th { color: var(--text-secondary); font-weight: 600; font-size: 12px; }
  tbody tr:hover { background: var(--surface-2); }
  code { font: 12px ui-monospace, monospace; }
  .pick { cursor: pointer; }
  .pick.a, .pick.b { outline: 2px solid var(--series-1); outline-offset: -2px; }
  .badge { font-size: 12px; padding: 1px 8px; border-radius: 10px; border: 1px solid; }
  .badge.ok { color: var(--status-good); border-color: var(--status-good); }
  .badge.bad { color: var(--status-serious); border-color: var(--status-serious); }
  #diff { background: var(--surface-2); border: 1px solid var(--border);
          border-radius: 8px; padding: 12px 16px; }
  #diff h2 { font-size: 14px; margin: 0 0 8px; }
  #diff .hint { color: var(--text-secondary); }
  #diff td.flag { color: var(--status-serious); }
</style>
</head>
<body>
<h1>repro run store</h1>
<p class="sub">append-only benchmark history &mdash; load / chaos / figure
runs with provenance and deterministic fingerprints</p>
<div class="tiles" id="tiles"></div>
<div class="cards" id="cards"></div>
<h2 style="font-size:15px">runs</h2>
<p class="sub">click one run for side A and another for side B to diff them</p>
<table id="runs"><thead><tr>
  <th>run</th><th>kind</th><th>created</th><th>fingerprint</th><th>summary</th>
</tr></thead><tbody></tbody></table>
<div id="diff"><h2>diff</h2><p class="hint">pick two runs of the same kind above</p></div>
<script>
"use strict";
const fmt = v => (v == null) ? "-"
  : (typeof v === "number" ? v.toLocaleString(undefined, {maximumFractionDigits: 1}) : String(v));

function sparkline(history) {
  const values = history.map(h => h[1]);
  const w = 380, h = 56, pad = 6;
  if (!values.length) return "<svg class='spark' viewBox='0 0 380 56'></svg>";
  const lo = Math.min(...values), hi = Math.max(...values);
  const span = (hi - lo) || 1;
  const x = i => values.length === 1 ? w / 2 : pad + i * (w - 2 * pad) / (values.length - 1);
  const y = v => h - pad - (v - lo) * (h - 2 * pad) / span;
  const pts = values.map((v, i) => `${x(i).toFixed(1)},${y(v).toFixed(1)}`).join(" ");
  const dots = history.map(([id, v], i) =>
    `<circle cx="${x(i).toFixed(1)}" cy="${y(v).toFixed(1)}" r="4">` +
    `<title>${id}: ${fmt(v)}</title></circle>`).join("");
  return `<svg class="spark" viewBox="0 0 ${w} ${h}" role="img">` +
    `<polyline points="${pts}"></polyline>${dots}</svg>`;
}

async function getJSON(url) {
  const resp = await fetch(url);
  if (!resp.ok) throw new Error(`${url}: HTTP ${resp.status}`);
  return resp.json();
}

function summaryText(meta) {
  const s = meta.summary || {};
  return Object.entries(s)
    .filter(([, v]) => v != null && !(Array.isArray(v) && !v.length))
    .map(([k, v]) => `${k}=${Array.isArray(v) ? v.join("+") : fmt(v)}`)
    .join("  ");
}

const picked = { a: null, b: null };

async function showDiff() {
  const box = document.getElementById("diff");
  if (!picked.a || !picked.b) return;
  try {
    const d = await getJSON(`/diff/${picked.a}/${picked.b}`);
    const badge = d.identical
      ? '<span class="badge ok">zero drift &mdash; fingerprints identical</span>'
      : (d.ok ? '<span class="badge ok">within thresholds</span>'
              : '<span class="badge bad">regressions</span>');
    let rows = (d.entries || []).map(e =>
      `<tr><td><code>${e.metric}</code></td><td>${fmt(e.a)}</td><td>${fmt(e.b)}</td>` +
      `<td>${e.rel == null ? "-" : (100 * e.rel).toFixed(1) + "%"}</td>` +
      `<td class="flag">${e.flag || ""}</td></tr>`).join("");
    rows += (d.verdict_changes || []).map(v =>
      `<tr><td colspan="4">verdict</td><td class="flag">${v}</td></tr>`).join("");
    box.innerHTML = `<h2>diff <code>${d.a}</code> &rarr; <code>${d.b}</code> ${badge}</h2>` +
      `<p class="hint">fingerprints <code>${d.fingerprint_a}</code> &rarr; ` +
      `<code>${d.fingerprint_b}</code></p>` +
      (rows ? `<table><thead><tr><th>metric</th><th>A</th><th>B</th><th>&Delta;%</th>` +
              `<th>flag</th></tr></thead><tbody>${rows}</tbody></table>`
            : "<p class='hint'>no comparable entries</p>");
  } catch (err) {
    box.innerHTML = `<h2>diff</h2><p class="hint">${err.message}</p>`;
  }
}

function pickRun(tr, runId) {
  const which = picked.a === null ? "a" : (picked.b === null ? "b" : null);
  if (which === null) {
    document.querySelectorAll("tr.pick.a, tr.pick.b")
      .forEach(el => el.classList.remove("a", "b"));
    picked.a = null; picked.b = null;
    return pickRun(tr, runId);
  }
  picked[which] = runId;
  tr.classList.add("pick", which);
  showDiff();
}

async function main() {
  const runs = await getJSON("/runs");
  const counts = {};
  runs.forEach(m => { counts[m.kind] = (counts[m.kind] || 0) + 1; });
  document.getElementById("tiles").innerHTML =
    ["load", "chaos", "figure"].map(kind =>
      `<div class="tile"><div class="n">${counts[kind] || 0}</div>` +
      `<div class="k">${kind} runs</div></div>`).join("");
  const tbody = document.querySelector("#runs tbody");
  runs.slice().reverse().forEach(meta => {
    const tr = document.createElement("tr");
    tr.className = "pick";
    tr.innerHTML = `<td><code>${meta.run_id}</code></td><td>${meta.kind}</td>` +
      `<td>${meta.created || "-"}</td>` +
      `<td><code title="${meta.fingerprint}">${(meta.fingerprint || "").slice(0, 8)}</code></td>` +
      `<td>${summaryText(meta)}</td>`;
    tr.addEventListener("click", () => pickRun(tr, meta.run_id));
    tbody.appendChild(tr);
  });
  const cards = document.getElementById("cards");
  const charts = [
    ["capacity_tps", "load capacity", "probed tps (load trajectory)"],
    ["p999_us", "tail latency", "p999 us at x1 offered load (load trajectory)"],
  ];
  for (const [metric, title, meta] of charts) {
    try {
      const hist = await getJSON(`/history/${metric}`);
      if (!hist.history.length) continue;
      const last = hist.history[hist.history.length - 1][1];
      const div = document.createElement("div");
      div.className = "card";
      div.innerHTML = `<h2>${title}: ${fmt(last)}</h2>` +
        `<div class="meta">${meta} &mdash; ${hist.history.length} run(s)</div>` +
        sparkline(hist.history);
      cards.appendChild(div);
    } catch (err) { /* a metric with no runs is fine */ }
  }
}
main().catch(err => {
  document.body.insertAdjacentHTML("beforeend",
    `<p class="sub">failed to load: ${err.message}</p>`);
});
</script>
</body>
</html>
"""
