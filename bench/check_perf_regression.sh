#!/usr/bin/env bash
# Perf-regression gate: compare a freshly produced bench JSON (from
# bench/run_all.sh) against the committed baseline and fail if a
# tracked headline metric regressed by more than the threshold.
#
# Tracked metrics (higher is better, compared against the baseline):
#   e18_campaign_delta.scenarios_per_sec_engine  (campaign engine)
#   e7_scaling_ff_speedup.ff_speedup             (fast-forward core)
#   e8_hotspot_ff_speedup.ff_speedup             (fast-forward core)
#   e19_shard_delta.shard_speedup_4              (sharded executor)
#   e22_topology_delta.oactive_ratio             (O(active) bookkeeping)
#
# Configuration binding: e22's entry records the topology set it was
# measured under; a baseline recorded under a different set is a hard
# failure (not a skip) — comparing across network shapes would make
# the numbers meaningless, exactly like comparing across shard counts.
#
# Absolute budgets (lower is better, compared against a fixed target —
# these keep checkpointing cheap enough to stay on by default). The
# targets are percentages of run wall-clock, so they are calibrated to
# the execution backend: the threaded-code dispatch made the runs
# themselves ~5x faster while the capture cost stayed absolute, so the
# budgets were rebased when the backend landed (2.4x/1.9x, far below
# the run speedup — the absolute capture cost went down too).
#   e17_snapshot_overhead_delta.snapshot_delta_async_overhead_pct   <= 12
#   e17_snapshot_overhead_delta.snapshot_delta_durable_overhead_pct <= 28
# The same noise threshold applies: the gate fails only when the
# measured value exceeds target * (1 + threshold/100).
#
# Usage: bench/check_perf_regression.sh <current.json> [baseline.json]
#        (baseline defaults to the newest BENCH_*.json in bench/baselines/)
# Env:   FB_PERF_REGRESSION_PCT  allowed drop / budget headroom, percent
#        (default 20)
# Exit:  0 within threshold, 1 regression found, 2 setup error.
set -euo pipefail

CURRENT="${1:-}"
if [ -z "$CURRENT" ] || [ ! -f "$CURRENT" ]; then
    echo "usage: $0 <current.json> [baseline.json]" >&2
    exit 2
fi

BASELINE="${2:-}"
if [ -z "$BASELINE" ]; then
    BASELINE=$(ls -1 "$(dirname "$0")"/baselines/BENCH_*.json 2>/dev/null | sort | tail -n 1 || true)
fi
if [ -z "$BASELINE" ] || [ ! -f "$BASELINE" ]; then
    echo "check_perf_regression: no baseline JSON found" >&2
    exit 2
fi

THRESHOLD="${FB_PERF_REGRESSION_PCT:-20}"

python3 - "$BASELINE" "$CURRENT" "$THRESHOLD" <<'EOF'
import json
import sys

baseline_path, current_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])

# (entry name, metric key) -> higher is better; a drop beyond the
# threshold fails the gate. Gains never fail.
TRACKED = [
    ("e18_campaign_delta", "scenarios_per_sec_engine"),
    ("e7_scaling_ff_speedup", "ff_speedup"),
    ("e8_hotspot_ff_speedup", "ff_speedup"),
    ("e19_shard_delta", "shard_speedup_4"),
    ("e22_topology_delta", "oactive_ratio"),
]

# (entry name, config key) -> must be string-equal between baseline
# and current whenever both entries exist; a mismatch is a hard
# failure, never a silent skip.
BOUND_CONFIG = [
    ("e22_topology_delta", "topologies"),
]

# (entry name, metric key, target) -> lower is better, judged against
# the fixed target rather than the baseline: an absolute budget cannot
# ratchet upward through repeated baseline refreshes. The value may
# exceed the target by the noise threshold before the gate fails.
BUDGETED = [
    ("e17_snapshot_overhead_delta", "snapshot_delta_async_overhead_pct",
     12.0),
    ("e17_snapshot_overhead_delta",
     "snapshot_delta_durable_overhead_pct", 28.0),
]


def load(path):
    with open(path) as f:
        doc = json.load(f)
    return {entry["name"]: entry for entry in doc.get("benches", [])}


baseline = load(baseline_path)
current = load(current_path)

failures = []
for name, key in BOUND_CONFIG:
    if name not in baseline or key not in baseline[name]:
        continue  # old baseline predates the entry; TRACKED will skip it
    if name not in current or key not in current[name]:
        failures.append(f"{name}.{key}: missing from current run")
        continue
    base = str(baseline[name][key])
    cur = str(current[name][key])
    if base != cur:
        failures.append(
            f"{name}.{key}: baseline measured under '{base}' but the "
            f"current run used '{cur}' — refresh the baseline instead "
            "of comparing across topologies")

for name, key in TRACKED:
    if name not in baseline or key not in baseline[name]:
        print(f"check_perf_regression: baseline lacks {name}.{key}; skipping")
        continue
    if name not in current or key not in current[name]:
        failures.append(f"{name}.{key}: missing from current run")
        continue
    base = float(baseline[name][key])
    cur = float(current[name][key])
    if base <= 0:
        continue
    drop_pct = 100.0 * (base - cur) / base
    verdict = "REGRESSED" if drop_pct > threshold else "ok"
    print(f"check_perf_regression: {name}.{key}: baseline={base:g} "
          f"current={cur:g} drop={drop_pct:.1f}% [{verdict}]")
    if drop_pct > threshold:
        failures.append(
            f"{name}.{key}: {base:g} -> {cur:g} "
            f"({drop_pct:.1f}% drop > {threshold:g}% allowed)")

for name, key, target in BUDGETED:
    if name not in current or key not in current[name]:
        failures.append(f"{name}.{key}: missing from current run")
        continue
    cur = float(current[name][key])
    allowed = target * (1.0 + threshold / 100.0)
    verdict = "OVER BUDGET" if cur > allowed else "ok"
    print(f"check_perf_regression: {name}.{key}: current={cur:g} "
          f"budget={target:g} (+{threshold:g}% headroom = {allowed:g}) "
          f"[{verdict}]")
    if cur > allowed:
        failures.append(
            f"{name}.{key}: {cur:g} > {allowed:g} "
            f"(budget {target:g} + {threshold:g}% headroom)")

if failures:
    print("check_perf_regression: FAIL", file=sys.stderr)
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    sys.exit(1)
print("check_perf_regression: all tracked metrics within "
      f"{threshold:g}% of baseline")
EOF
