#!/usr/bin/env bash
# Run every experiment binary (bench/e*) and emit a machine-readable
# BENCH_<date>.json with wall-clock time, simulated cycles (from the
# "total-sim-cycles:" tally each bench prints at exit), and simulation
# throughput in cycles/sec. For E7 and E8 the --ff-stress mode is also
# timed with and without FB_NO_FAST_FORWARD=1 to report the speedup of
# the event-driven fast-forward core over the legacy per-cycle loop,
# and E17's checkpoint on/off overhead deltas are copied into their
# own JSON entry.
#
# Usage: bench/run_all.sh [build-dir]     (default: build)
# Output: BENCH_<YYYYMMDD>.json in the current directory, or $BENCH_OUT.
# Exit status: 0 all benches ran, 1 a bench failed, 2 setup error
# (missing build dir or missing experiment binary).
set -euo pipefail

BUILD_DIR="${1:-build}"
BENCH_DIR="$BUILD_DIR/bench"
OUT="${BENCH_OUT:-BENCH_$(date +%Y%m%d).json}"

if [ ! -d "$BENCH_DIR" ]; then
    echo "run_all: no such directory: $BENCH_DIR" >&2
    echo "run_all: build first: cmake -B $BUILD_DIR -S . -DCMAKE_BUILD_TYPE=Release && cmake --build $BUILD_DIR -j" >&2
    exit 2
fi

# The full experiment roster. A binary missing from a built tree means
# the build is stale or broken; fail loudly instead of silently
# benchmarking a subset.
EXPECTED="e1_section8_encore e2_fig7_if_statements e3_fig9_lexforward
e4_fig11_static_sched e5_fig12_runtime_sched e6_fig5_loop_distribution
e7_scaling e8_hotspot e9_drift_tolerance e10_microbench
e11_pipeline_ablation e12_encoding_ablation e13_cycle_shrinking
e14_selfsched_runtime e15_sync_latency e16_fault_overhead
e17_snapshot_overhead e18_campaign_throughput e19_shard_scaling
e21_service_overhead e22_topology_scaling"
for name in $EXPECTED; do
    if [ ! -x "$BENCH_DIR/$name" ]; then
        echo "run_all: missing experiment binary: $BENCH_DIR/$name" >&2
        echo "run_all: rebuild with: cmake --build $BUILD_DIR -j" >&2
        exit 2
    fi
done

# The reverse check: a built e*-binary absent from the roster would be
# silently skipped — a new experiment someone forgot to register here.
# Fail loudly so the roster and the build stay in lockstep.
for path in "$BENCH_DIR"/e*; do
    [ -x "$path" ] && [ ! -d "$path" ] || continue
    bin=$(basename "$path")
    case "$bin" in
      *.*) continue ;;  # objects/artifacts, not experiment binaries
    esac
    case " $(echo $EXPECTED) " in
      *" $bin "*) ;;
      *)
        echo "run_all: built experiment binary not in roster: $bin" >&2
        echo "run_all: add it to EXPECTED in bench/run_all.sh" >&2
        exit 2
        ;;
    esac
done

FAILURES=0
ENTRIES=""

# run_one <json-name> <cmd...> — time the command, parse its cycle
# tally, and append a JSON entry. Sets WALL_S/SIM_CYCLES/STATUS/OUT_TEXT.
run_one() {
    local name="$1"
    shift
    local start end
    start=$(date +%s%N)
    # set -e must not kill the harness on a failing bench; capture the
    # exit status explicitly and report it in the JSON instead.
    if OUT_TEXT="$("$@" 2>&1)"; then
        STATUS=0
    else
        STATUS=$?
    fi
    end=$(date +%s%N)
    WALL_S=$(awk -v s="$start" -v e="$end" 'BEGIN{printf "%.6f", (e - s) / 1e9}')
    SIM_CYCLES=$(printf '%s\n' "$OUT_TEXT" |
        awk '/^total-sim-cycles:/ {c += $2} END {printf "%.0f", c + 0}')
    local cps
    cps=$(awk -v c="$SIM_CYCLES" -v w="$WALL_S" \
        'BEGIN{printf "%.0f", (w > 0) ? c / w : 0}')
    if [ "$STATUS" -ne 0 ]; then
        FAILURES=$((FAILURES + 1))
        echo "run_all: FAIL $name (exit $STATUS)" >&2
        printf '%s\n' "$OUT_TEXT" | tail -n 5 >&2
    fi
    ENTRIES="$ENTRIES  {\"name\": \"$name\", \"wall_seconds\": $WALL_S, \"sim_cycles\": $SIM_CYCLES, \"cycles_per_sec\": $cps, \"exit_status\": $STATUS},
"
    echo "run_all: $name wall=${WALL_S}s cycles=$SIM_CYCLES cycles/sec=$cps"
}

# Every table-style experiment binary. e10_microbench is a
# google-benchmark harness over the real-thread software barriers (no
# simulated machine, so its sim_cycles tally is 0 by construction).
for name in $EXPECTED; do
    run_one "$name" "$BENCH_DIR/$name"
    if [ "$name" = "e17_snapshot_overhead" ] && [ "$STATUS" -eq 0 ]; then
        # Copy E17's checkpoint on/off deltas into their own entry so
        # dashboards can track snapshot cost without table-scraping.
        mem_pct=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^snapshot-overhead-pct:/ {print $2; exit}')
        durable_pct=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^snapshot-durable-overhead-pct:/ {print $2; exit}')
        snap_bytes=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^snapshot-bytes-per-checkpoint:/ {print $2; exit}')
        da_pct=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^snapshot-delta-async-overhead-pct:/ {print $2; exit}')
        dd_pct=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^snapshot-delta-durable-overhead-pct:/ {print $2; exit}')
        ds_pct=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^snapshot-delta-sync-overhead-pct:/ {print $2; exit}')
        delta_bytes=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^snapshot-delta-bytes-per-checkpoint:/ {print $2; exit}')
        if [ -z "$mem_pct" ] || [ -z "$durable_pct" ] ||
           [ -z "$da_pct" ] || [ -z "$dd_pct" ]; then
            echo "run_all: FAIL e17_snapshot_overhead: missing overhead tally lines" >&2
            FAILURES=$((FAILURES + 1))
        else
            ENTRIES="$ENTRIES  {\"name\": \"e17_snapshot_overhead_delta\", \"snapshot_overhead_pct\": $mem_pct, \"snapshot_durable_overhead_pct\": $durable_pct, \"snapshot_bytes_per_checkpoint\": ${snap_bytes:-0}, \"snapshot_delta_async_overhead_pct\": $da_pct, \"snapshot_delta_durable_overhead_pct\": $dd_pct, \"snapshot_delta_sync_overhead_pct\": ${ds_pct:-0}, \"snapshot_delta_bytes_per_checkpoint\": ${delta_bytes:-0}},
"
            echo "run_all: snapshot overhead: delta-async ${da_pct}%, delta-durable ${dd_pct}%, full-durable ${durable_pct}%"
        fi
    fi
    if [ "$name" = "e19_shard_scaling" ] && [ "$STATUS" -eq 0 ]; then
        # Copy E19's shard-scaling tallies into their own entry so the
        # perf-regression gate can track the sharded executor's speedup
        # over the sequential core without table-scraping.
        sp2=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^shard-speedup-2:/ {print $2; exit}')
        sp4=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^shard-speedup-4:/ {print $2; exit}')
        sp8=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^shard-speedup-8:/ {print $2; exit}')
        if [ -z "$sp2" ] || [ -z "$sp4" ] || [ -z "$sp8" ]; then
            echo "run_all: FAIL e19_shard_scaling: missing shard-speedup tally lines" >&2
            FAILURES=$((FAILURES + 1))
        else
            ENTRIES="$ENTRIES  {\"name\": \"e19_shard_delta\", \"shard_speedup_2\": $sp2, \"shard_speedup_4\": $sp4, \"shard_speedup_8\": $sp8},
"
            echo "run_all: shard scaling: ${sp2}x @2, ${sp4}x @4, ${sp8}x @8 shards"
        fi
    fi
    if [ "$name" = "e21_service_overhead" ] && [ "$STATUS" -eq 0 ]; then
        # Copy E21's service-overhead tallies into their own entry so
        # the perf gate can track the cost of process isolation and of
        # one injected worker-death recovery without table-scraping.
        svc_rate=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^service-scenarios-per-sec:/ {print $2; exit}')
        svc_ovh=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^service-overhead-pct:/ {print $2; exit}')
        svc_rec=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^service-recovery-overhead-pct:/ {print $2; exit}')
        if [ -z "$svc_rate" ] || [ -z "$svc_ovh" ] || [ -z "$svc_rec" ]; then
            echo "run_all: FAIL e21_service_overhead: missing service tally lines" >&2
            FAILURES=$((FAILURES + 1))
        else
            ENTRIES="$ENTRIES  {\"name\": \"e21_service_delta\", \"service_scenarios_per_sec\": $svc_rate, \"service_overhead_pct\": $svc_ovh, \"service_recovery_overhead_pct\": $svc_rec},
"
            echo "run_all: service overhead: ${svc_ovh}% over in-process engine, recovery +${svc_rec}%"
        fi
    fi
    if [ "$name" = "e22_topology_scaling" ] && [ "$STATUS" -eq 0 ]; then
        # Copy E22's topology tallies into their own entry. The
        # topology config string is part of the entry: the perf gate
        # refuses to compare against a baseline measured under a
        # different set of network shapes (same contract as the shard
        # settings baked into e19's workload).
        topo_adv=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^topology-sync-advantage-1024:/ {print $2; exit}')
        topo_ratio=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^topology-oactive-ratio:/ {print $2; exit}')
        topo_cfg=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^topology-config:/ {print $2; exit}')
        if [ -z "$topo_adv" ] || [ -z "$topo_ratio" ] || [ -z "$topo_cfg" ]; then
            echo "run_all: FAIL e22_topology_scaling: missing topology tally lines" >&2
            FAILURES=$((FAILURES + 1))
        else
            ENTRIES="$ENTRIES  {\"name\": \"e22_topology_delta\", \"topologies\": \"$topo_cfg\", \"sync_advantage_1024\": $topo_adv, \"oactive_ratio\": $topo_ratio},
"
            echo "run_all: topology scaling: sync advantage ${topo_adv}x at 1024 procs, O(active) rate ratio ${topo_ratio}"
        fi
    fi
    if [ "$name" = "e18_campaign_throughput" ] && [ "$STATUS" -eq 0 ]; then
        # Copy E18's campaign-engine throughput tallies into their own
        # entry so the perf-regression gate (and dashboards) can track
        # scenarios/sec without table-scraping.
        eng_rate=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^campaign-scenarios-per-sec-engine:/ {print $2; exit}')
        leg_rate=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^campaign-scenarios-per-sec-legacy:/ {print $2; exit}')
        camp_speedup=$(printf '%s\n' "$OUT_TEXT" |
            awk '/^campaign-speedup:/ {print $2; exit}')
        if [ -z "$eng_rate" ] || [ -z "$leg_rate" ] || [ -z "$camp_speedup" ]; then
            echo "run_all: FAIL e18_campaign_throughput: missing campaign tally lines" >&2
            FAILURES=$((FAILURES + 1))
        else
            ENTRIES="$ENTRIES  {\"name\": \"e18_campaign_delta\", \"scenarios_per_sec_engine\": $eng_rate, \"scenarios_per_sec_legacy\": $leg_rate, \"campaign_speedup\": $camp_speedup},
"
            echo "run_all: campaign engine: ${eng_rate} scenarios/sec (${camp_speedup}x over legacy batch loop)"
        fi
    fi
done

# Fast-forward speedup probes: same workload, event-driven core vs
# the legacy per-cycle loop. The cycle counts must match exactly (the
# equivalence invariant); only the wall-clock may differ.
for stress in e7_scaling e8_hotspot; do
    run_one "${stress}_ff_stress" "$BENCH_DIR/$stress" --ff-stress
    ff_wall=$WALL_S
    ff_cycles=$SIM_CYCLES
    run_one "${stress}_ff_stress_legacy" \
        env FB_NO_FAST_FORWARD=1 "$BENCH_DIR/$stress" --ff-stress
    legacy_wall=$WALL_S
    legacy_cycles=$SIM_CYCLES
    if [ "$ff_cycles" != "$legacy_cycles" ]; then
        echo "run_all: FAIL ${stress}_ff_stress: cycle mismatch ff=$ff_cycles legacy=$legacy_cycles" >&2
        FAILURES=$((FAILURES + 1))
    fi
    speedup=$(awk -v f="$ff_wall" -v l="$legacy_wall" \
        'BEGIN{printf "%.2f", (f > 0) ? l / f : 0}')
    ENTRIES="$ENTRIES  {\"name\": \"${stress}_ff_speedup\", \"ff_wall_seconds\": $ff_wall, \"legacy_wall_seconds\": $legacy_wall, \"ff_speedup\": $speedup, \"sim_cycles\": $ff_cycles},
"
    echo "run_all: ${stress} fast-forward speedup: ${speedup}x"
done

{
    echo "{"
    echo "\"date\": \"$(date +%Y-%m-%d)\","
    echo "\"benches\": ["
    printf '%s' "$ENTRIES" | sed '$ s/},$/}/'
    echo "]"
    echo "}"
} > "$OUT"

echo "run_all: wrote $OUT (${FAILURES} failure(s))"
[ "$FAILURES" -eq 0 ] || exit 1
exit 0
