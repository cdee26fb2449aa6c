#!/usr/bin/env sh
# Run every figure benchmark in a build directory and save each one's stdout
# under <outdir>/<bench>.txt. Grid-shaped benches additionally emit a
# machine-readable summary, collected as BENCH_<fig>.json at the repo root —
# the per-figure trajectories the ROADMAP tracks.
#
#   usage: scripts/run_benches.sh [--jobs N] [--quick] [--obs] [build-dir] [outdir]
#
#   --jobs N   worker threads for the grid benches (default: all cores,
#              or L4SPAN_BENCH_JOBS when set, passed on as --jobs;
#              1 = historical serial run)
#   --quick    tiny grid slices (the CI perf-smoke configuration)
#   --obs      run bench_fault_chaos with the obs:: telemetry hub enabled:
#              metric snapshots, trace dumps and flight-recorder incident
#              files land under <outdir>/obs/, with a rendered summary in
#              <outdir>/obs_report.txt (results are byte-identical either way)
set -eu

jobs=${L4SPAN_BENCH_JOBS:-0}
quick=""
obs=""
build_dir=""
out_dir=""
while [ $# -gt 0 ]; do
    case "$1" in
        --jobs)
            jobs=$2
            shift 2
            ;;
        --jobs=*)
            jobs=${1#--jobs=}
            shift
            ;;
        --quick)
            quick="--quick"
            shift
            ;;
        --obs)
            obs=1
            shift
            ;;
        -*)
            echo "usage: $0 [--jobs N] [--quick] [--obs] [build-dir] [outdir]" >&2
            exit 2
            ;;
        *)
            if [ -z "$build_dir" ]; then
                build_dir=$1
            elif [ -z "$out_dir" ]; then
                out_dir=$1
            else
                echo "unexpected argument: $1" >&2
                exit 2
            fi
            shift
            ;;
    esac
done
build_dir=${build_dir:-build}
out_dir=${out_dir:-bench-results}
repo_root=$(dirname "$0")/..

if [ ! -d "$build_dir" ]; then
    echo "error: build dir '$build_dir' not found (run the tier-1 build first)" >&2
    exit 1
fi

# Benches that read --quick and --json (grid_runner- or topology-sharded).
# The binaries check this list themselves: a bench that does not read a flag
# it is given exits 1 naming it, so a wrong entry fails the run.
grid_benches="bench_ecn_impairment bench_fault_chaos bench_fig09_tcp_grid \
bench_fig13_video bench_fig14_fairness bench_fig16_shared_drb \
bench_fig17_queue_cdf bench_fig18_coherence bench_fig19_threshold \
bench_fig21_proctime bench_fig24_bbr_reno bench_mc_handover \
bench_quic_interactive bench_tab1_overhead bench_trace_replay"

is_grid_bench() {
    for g in $grid_benches; do
        [ "$1" = "$g" ] && return 0
    done
    return 1
}

mkdir -p "$out_dir"
status=0
ran=0
for bin in "$build_dir"/bench_*; do
    [ -f "$bin" ] && [ -x "$bin" ] || continue
    name=$(basename "$bin")
    ran=$((ran + 1))
    echo "== $name"
    if is_grid_bench "$name"; then
        # bench_fig09_tcp_grid -> fig09; bench_tab1_overhead -> tab1
        case "$name" in
            bench_ecn_impairment) fig=ecn_impairment ;;
            bench_fault_chaos) fig=fault_chaos ;;
            bench_mc_handover) fig=mc_handover ;;
            bench_quic_interactive) fig=quic_interactive ;;
            bench_trace_replay) fig=trace_replay ;;
            *) fig=$(echo "$name" | cut -d_ -f2) ;;
        esac
        set -- $quick --json "$out_dir/BENCH_$fig.json"
        # The replay grid runs from the committed NR-Scope-style traces.
        if [ "$name" = "bench_trace_replay" ]; then
            set -- "$@" --trace-dir "$repo_root/traces"
        fi
        # --obs: the chaos bench doubles as the flight-recorder exercise.
        if [ -n "$obs" ] && [ "$name" = "bench_fault_chaos" ]; then
            mkdir -p "$out_dir/obs"
            set -- "$@" --obs-out "$out_dir/obs/chaos"
        fi
        if [ "$jobs" -gt 0 ] 2>/dev/null; then
            set -- "$@" --jobs "$jobs"
        fi
        if "$bin" "$@" > "$out_dir/$name.txt" 2>&1; then
            tail -n 3 "$out_dir/$name.txt"
            cp "$out_dir/BENCH_$fig.json" "$repo_root/BENCH_$fig.json"
        else
            echo "   FAILED (see $out_dir/$name.txt)" >&2
            status=1
        fi
    elif "$bin" > "$out_dir/$name.txt" 2>&1; then
        tail -n 3 "$out_dir/$name.txt"
    else
        echo "   FAILED (see $out_dir/$name.txt)" >&2
        status=1
    fi
done
if [ "$ran" -eq 0 ]; then
    echo "error: no bench_* binaries in '$build_dir' (built with -DL4SPAN_BUILD_BENCH=ON?)" >&2
    exit 1
fi
if [ -n "$obs" ] && [ -d "$out_dir/obs" ]; then
    echo "== obs_report (telemetry summaries for the chaos run)"
    prefixes=$(ls "$out_dir"/obs/*.trace.jsonl 2>/dev/null \
        | sed 's/\.trace\.jsonl$//' || true)
    if [ -n "$prefixes" ]; then
        # shellcheck disable=SC2086
        python3 "$repo_root/scripts/obs_report.py" $prefixes \
            > "$out_dir/obs_report.txt" 2>&1 || status=1
        tail -n 5 "$out_dir/obs_report.txt"
    fi
fi
exit $status
