#!/usr/bin/env bash
# trend_collect.sh — fold matrix_sweep reports into the committed
# medians-over-time table (crates/bench/baselines/trend.md).
#
# Usage:
#   scripts/trend_collect.sh append TREND_MD REPORT_JSON LABEL [CORPUS_JSON] [CHAOS_JSON]
#       Append one row for REPORT_JSON under LABEL (idempotent: a row
#       whose label already exists is skipped). When CORPUS_JSON (a
#       `matrix_sweep --corpus` report) is given, corpus_topos and
#       corpus_config_median_ns carry the corpus breadth (distinct
#       topologies) and the median across per-topology configuration
#       medians; when CHAOS_JSON (a `chaos_sweep` campaign report) is
#       given, chaos_schedules carries the campaign's cell count and
#       chaos_violations the total invariant violations across them
#       (0 on a green campaign). Absent inputs read "-".
#   scripts/trend_collect.sh fetch TREND_MD [LIMIT]
#       In CI: download up to LIMIT (default 12) prior sweep-full
#       artifacts via `gh`, append a row per report (oldest first),
#       labelled by the commit that produced it. Requires GH_TOKEN and
#       GH_REPO; degrades to a no-op outside CI.
#
# The table tracks the summary *median* of a fixed metric set — the
# first cut of the ROADMAP "plot medians over time" dashboard. Times
# are nanoseconds of simulated time: every column is deterministic.
# Wall-clock speed is rfbench's job (BENCHMARK.json), not this table's.
set -euo pipefail

# traffic_* columns arrived with report schema v4 (the stochastic
# traffic engine); rows collected before then carry "-" there.
METRICS=(all_configured_ns recovery_ns ping_replies of_bytes_sent of_pushes of_deferred of_queue_hwm dataplane_flows traffic_offered_bytes traffic_delivered_bytes traffic_fct_p95_ns)

header() {
    local md=$1
    if [ ! -s "$md" ]; then
        {
            printf '# sweep-full trend — summary medians per run\n\n'
            printf 'Appended by `scripts/trend_collect.sh` (see `.github/workflows/sweep-full.yml`).\n'
            printf 'Times are nanoseconds of simulated time; `-` means the metric was absent.\n\n'
            printf '| run | cells |'
            printf ' %s |' "${METRICS[@]}"
            printf ' corpus_topos | corpus_config_median_ns | chaos_schedules | chaos_violations |'
            printf '\n|---|---|'
            printf '%s' "$(printf -- '---|%.0s' "${METRICS[@]}")"
            printf -- '---|---|---|---|'
            printf '\n'
        } >"$md"
    fi
}

row_for() {
    local report=$1 label=$2 corpus=$3 chaos=$4
    python3 - "$report" "$label" "$corpus" "$chaos" "${METRICS[@]}" <<'PY'
import json, sys
report, label, corpus, chaos, metrics = (
    sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4], sys.argv[5:])
with open(report) as f:
    doc = json.load(f)
cells = doc.get("cells", [])
summary = doc.get("summary", {})
cols = [label, str(len(cells))]
for m in metrics:
    s = summary.get(m)
    cols.append(str(s["median"]) if s else "-")
# Corpus breadth columns: distinct topologies in the corpus report and
# the median across per-topology configuration medians (lower median
# throughout, matching MatrixReport::per_topology_medians).
topos, corpus_median = "-", "-"
if corpus:
    try:
        with open(corpus) as f:
            ccells = json.load(f).get("cells", [])
        by_topo = {}
        for c in ccells:
            key = c.get("key", "")
            if not key.startswith("topo="):
                continue
            topo = key[len("topo="):].split("/", 1)[0]
            v = c.get("metrics", {}).get("all_configured_ns")
            if v is not None:
                by_topo.setdefault(topo, []).append(v)
        if by_topo:
            meds = sorted(sorted(vs)[(len(vs) - 1) // 2] for vs in by_topo.values())
            topos = str(len(by_topo))
            corpus_median = str(meds[(len(meds) - 1) // 2])
    except (OSError, ValueError):
        pass  # missing or malformed corpus report: leave "-"
cols += [topos, corpus_median]
# Chaos campaign columns: schedule (cell) count and total invariant
# violations from a chaos_sweep report — 0 means the campaign was
# green; the per-cell metric is `chaos_violations` (report schema v4).
chaos_schedules, chaos_violations = "-", "-"
if chaos:
    try:
        with open(chaos) as f:
            hcells = json.load(f).get("cells", [])
        chaos_schedules = str(len(hcells))
        chaos_violations = str(sum(
            c.get("metrics", {}).get("chaos_violations", 0) for c in hcells))
    except (OSError, ValueError):
        pass  # missing or malformed chaos report: leave "-"
cols += [chaos_schedules, chaos_violations]
print("| " + " | ".join(cols) + " |")
PY
}

append_row() {
    local md=$1 report=$2 label=$3 corpus=${4:-} chaos=${5:-}
    header "$md"
    if grep -q "^| ${label} |" "$md"; then
        echo "trend: row '${label}' already present, skipping" >&2
        return 0
    fi
    row_for "$report" "$label" "$corpus" "$chaos" >>"$md"
    echo "trend: appended '${label}' from ${report}" >&2
}

case "${1:-}" in
append)
    [ $# -ge 4 ] && [ $# -le 6 ] || {
        echo "usage: $0 append TREND_MD REPORT_JSON LABEL [CORPUS_JSON] [CHAOS_JSON]" >&2
        exit 2
    }
    append_row "$2" "$3" "$4" "${5:-}" "${6:-}"
    ;;
fetch)
    [ $# -ge 2 ] || { echo "usage: $0 fetch TREND_MD [LIMIT]" >&2; exit 2; }
    md=$2
    limit=${3:-12}
    if ! command -v gh >/dev/null; then
        echo "trend: gh CLI not available, skipping artifact fetch" >&2
        exit 0
    fi
    header "$md"
    # Oldest first, so the table reads chronologically.
    gh run list --workflow sweep-full --status success --limit "$limit" \
        --json databaseId,headSha --jq 'reverse | .[] | "\(.databaseId) \(.headSha)"' |
        while read -r run_id sha; do
            dir=$(mktemp -d)
            if gh run download "$run_id" --name "sweep-full-report-${sha}" --dir "$dir" 2>/dev/null ||
                gh run download "$run_id" --pattern 'sweep-full-report-*' --dir "$dir" 2>/dev/null; then
                report=$(find "$dir" -name 'sweep-full.json' | head -1)
                if [ -n "$report" ]; then
                    append_row "$md" "$report" "${sha:0:7}" || true
                fi
            else
                echo "trend: no artifact for run ${run_id}, skipping" >&2
            fi
            rm -rf "$dir"
        done
    ;;
*)
    echo "usage: $0 {append TREND_MD REPORT_JSON LABEL [CORPUS_JSON] [CHAOS_JSON] | fetch TREND_MD [LIMIT]}" >&2
    exit 2
    ;;
esac
