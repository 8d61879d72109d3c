#!/bin/sh
# Tier-1 verification: configure, build, run the full test suite, then
# drive the compiler end to end and validate every machine-readable
# artifact it emits (stats, trace, remarks, snapshot manifest, batch
# summary) with json_check, including a remark_diff of two identical
# runs to pin down pipeline determinism (on mac.ret, and on
# fsm_shrink.ret, whose shrink probes get past the prechecks, under
# both --sat-solver modes), a
# coverage_diff of the merged example-program coverage against the
# checked-in golden (tests/goldens/coverage.json), and a profile_diff
# of two identical profiled VM runs to pin down hot-set determinism.
# RUN_BENCH=1 additionally runs the microbenchmarks. After the primary
# build, two hardening builds run: one under ThreadSanitizer exercising
# the concurrent batch-compile path and concurrent compiled-simulation
# VM runs, and one under AddressSanitizer + UndefinedBehaviorSanitizer
# running the whole ctest suite. Run from anywhere; builds into
# <repo>/build (plus build-tsan/ and build-asan/ siblings).
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build="$repo/build"
jobs=$(nproc 2>/dev/null || echo 4)

echo "== configure + build =="
cmake -B "$build" -S "$repo"
cmake --build "$build" -j"$jobs"

echo "== ctest =="
(cd "$build" && ctest --output-on-failure -j"$jobs")

echo "== end-to-end artifact check =="
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

"$build/tools/reticlec" --device=small \
    --stats-json="$out/stats.json" \
    --trace="$out/trace.json" \
    --remarks-json="$out/remarks.jsonl" \
    --dump-after-all="$out/stages" \
    --floorplan="$out/plan.svg" \
    -o "$out/mac.v" \
    "$repo/examples/programs/mac.ret"

"$build/tools/json_check" --require=schema --require=program \
    --require=timings.total_ms --require=timings.parse_ms \
    --require=place.sat.decisions \
    --require=sat.solver_mode --require=sat.shrink_ms \
    --require=sat.shrink.probes --require=sat.shrink.precheck_probes \
    --require=sat.cnf_solves \
    --require=sat.enumerate_ms --require=sat.candidates \
    --require=utilization.luts "$out/stats.json"
"$build/tools/json_check" --require=traceEvents "$out/trace.json"
"$build/tools/json_check" --require=schema \
    --require=stages.parse.file --require=stages.opt.file \
    --require=stages.isel.file \
    --require=stages.cascade.file --require=stages.place.file \
    --require=stages.codegen.file "$out/stages/manifest.json"
# Remark contents exist only when telemetry is compiled in; the stream
# must be valid JSONL either way (empty counts as valid).
"$build/tools/json_check" --jsonl "$out/remarks.jsonl"
grep -q "</svg>" "$out/plan.svg"

echo "== remark determinism (remark_diff on two identical runs) =="
"$build/tools/reticlec" --device=small --emit=placed \
    --remarks-json="$out/remarks-b.jsonl" \
    --floorplan-timeline="$out/timeline.svg" \
    "$repo/examples/programs/mac.ret"
grep -q "</svg>" "$out/timeline.svg"
"$build/tools/reticlec" --device=small --emit=placed \
    --remarks-json="$out/remarks-a.jsonl" \
    "$repo/examples/programs/mac.ret"
"$build/tools/json_check" remark_diff \
    "$out/remarks-a.jsonl" "$out/remarks-b.jsonl"

echo "== remark ratchet (golden stream for mac.ret) =="
# The checked-in golden pins every remark the pipeline emits for mac.ret
# on the small device. Drift is a contract change: inspect the diff, and
# if intentional regenerate with
#   build/tools/reticlec --device=small --emit=placed \
#       --remarks-json=tests/goldens/mac/remarks.jsonl \
#       examples/programs/mac.ret
"$build/tools/json_check" remark_diff \
    "$repo/tests/goldens/mac/remarks.jsonl" "$out/remarks-a.jsonl"

echo "== solver determinism (remark_diff on two runs with SAT probes) =="
# mac.ret settles every shrink probe arithmetically, so the gate above
# never reaches the solver. fsm_shrink.ret has real SAT-backed shrink
# probes; two runs must emit byte-identical remark streams, shrink-probe
# remarks included, once under the default mode (answered by
# propagation) and once under --sat-solver=scratch, so the CNF path
# keeps a determinism gate of its own.
for mode in propagate scratch; do
    "$build/tools/reticlec" --device=small --emit=placed -o /dev/null \
        --sat-solver="$mode" --remarks-json="$out/probes-$mode-a.jsonl" \
        "$repo/tests/inputs/fsm_shrink.ret"
    "$build/tools/reticlec" --device=small --emit=placed -o /dev/null \
        --sat-solver="$mode" --remarks-json="$out/probes-$mode-b.jsonl" \
        "$repo/tests/inputs/fsm_shrink.ret"
    "$build/tools/json_check" remark_diff \
        "$out/probes-$mode-a.jsonl" "$out/probes-$mode-b.jsonl"
    grep -q '"shrink-probe"' "$out/probes-$mode-a.jsonl"
    # Ratchet against the checked-in stream, so a change to what the
    # placer searches shows up even when both modes drift together.
    # Regenerate (after inspecting the diff) with
    #   build/tools/reticlec --device=small --emit=placed -o /dev/null \
    #       --remarks-json=tests/goldens/fsm_shrink/remarks.jsonl \
    #       tests/inputs/fsm_shrink.ret
    "$build/tools/json_check" remark_diff \
        "$repo/tests/goldens/fsm_shrink/remarks.jsonl" \
        "$out/probes-$mode-a.jsonl"
done

echo "== batch compile end to end =="
"$build/tools/reticlec" --device=small --jobs="$jobs" \
    --out-dir="$out/batch" \
    --stats-json="$out/batch/summary.json" \
    "$repo/examples/programs/mac.ret" \
    "$repo/examples/programs/dot3.ret" \
    "$repo/examples/programs/scalar_adds.ret"
"$build/tools/json_check" --batch-summary "$out/batch/summary.json"
for stem in mac dot3 scalar_adds; do
    test -s "$out/batch/$stem.v"
    "$build/tools/json_check" --require=schema \
        "$out/batch/$stem.stats.json"
done

echo "== wave_diff sweep (tree engines vs compiled VM on every example) =="
# The differential-simulation oracle: run every example program's input
# trace through all four engines (tree-walking interpreter and netlist
# simulator, plus the compiled-bytecode VM lowered from each source),
# emit reticle-wave-v1 streams, and require zero-divergence joins both
# between the tree engines and between each VM and the tree engine it
# replaces. A VCD streamed to stdout must reach its dump section.
for stem in mac dot3 scalar_adds; do
    for engine in interp netlist vm-ir vm-netlist; do
        "$build/tools/reticlec" --device=small \
            --run="$repo/examples/traces/$stem.trace.json" --sim="$engine" \
            --wave-json="$out/$stem.$engine.wave.jsonl" \
            "$repo/examples/programs/$stem.ret"
        "$build/tools/json_check" --jsonl --require=schema \
            "$out/$stem.$engine.wave.jsonl"
    done
    "$build/tools/json_check" wave_diff \
        "$out/$stem.interp.wave.jsonl" "$out/$stem.netlist.wave.jsonl"
    "$build/tools/json_check" wave_diff \
        "$out/$stem.vm-ir.wave.jsonl" "$out/$stem.interp.wave.jsonl"
    "$build/tools/json_check" wave_diff \
        "$out/$stem.vm-netlist.wave.jsonl" "$out/$stem.netlist.wave.jsonl"
done
"$build/tools/reticlec" --device=small \
    --run="$repo/examples/traces/mac.trace.json" --sim=both --vcd=- \
    "$repo/examples/programs/mac.ret" | grep -q '$enddefinitions'

echo "== coverage ratchet (merge over the example programs vs golden) =="
# Each program's standalone reticle-coverage-v1 doc, merged with
# coverage_merge, must not lose a single bin against the checked-in
# golden (tests/goldens/coverage.json). Gained bins pass — the ratchet
# only tightens. After an intentional coverage change regenerate with:
#   build/tools/json_check coverage_merge \
#       <mac,dot3,scalar_adds>.coverage.json > tests/goldens/coverage.json
for stem in mac dot3 scalar_adds; do
    "$build/tools/reticlec" --device=small \
        --coverage="$out/$stem.coverage.json" \
        --emit=asm -o /dev/null \
        "$repo/examples/programs/$stem.ret"
    "$build/tools/json_check" --require=schema --require=totals.hit \
        "$out/$stem.coverage.json"
done
"$build/tools/json_check" coverage_merge \
    "$out/mac.coverage.json" "$out/dot3.coverage.json" \
    "$out/scalar_adds.coverage.json" > "$out/merged.coverage.json"
for stem in mac dot3 scalar_adds; do
    "$build/tools/json_check" coverage_diff \
        "$out/$stem.coverage.json" "$out/merged.coverage.json"
done
"$build/tools/json_check" coverage_diff \
    "$repo/tests/goldens/coverage.json" "$out/merged.coverage.json"
# A --run adds dynamic toggle bins on top of the static spaces.
"$build/tools/reticlec" --device=small \
    --run="$repo/examples/traces/mac.trace.json" --sim=both \
    --coverage="$out/mac.run.coverage.json" \
    "$repo/examples/programs/mac.ret"
"$build/tools/json_check" --nonempty=spaces.sim.toggle.bins \
    "$out/mac.run.coverage.json"

echo "== sim-VM profile (reticle-profile-v1) + hot-set determinism =="
# Two identical profiled runs must agree on every hot instruction and
# every count — only the sampled wall times are machine-dependent, and
# profile_diff ignores those. The join is the determinism gate: a drift
# in the hot set means the lowering or the attribution table changed.
"$build/tools/reticlec" --device=small \
    --run="$repo/examples/traces/mac.trace.json" --sim=both \
    --profile-sim="$out/mac.profile-a.json" \
    "$repo/examples/programs/mac.ret"
"$build/tools/json_check" --require=schema --require=program \
    --require=cycles --require=ops.total --require=ops.attributed \
    --require=ops.attributed_frac --nonempty=hot_instructions \
    --nonempty=hot_signals "$out/mac.profile-a.json"
"$build/tools/reticlec" --device=small \
    --run="$repo/examples/traces/mac.trace.json" --sim=both \
    --profile-sim="$out/mac.profile-b.json" \
    "$repo/examples/programs/mac.ret"
"$build/tools/json_check" profile_diff \
    "$out/mac.profile-a.json" "$out/mac.profile-b.json"
# A profile streamed to stdout must carry the schema marker, and the
# flamegraph fold must reconstruct at least one nested compile stack.
"$build/tools/reticlec" --device=small \
    --run="$repo/examples/traces/mac.trace.json" --sim=vm-netlist \
    --profile-sim=- \
    "$repo/examples/programs/mac.ret" | grep -q "reticle-profile-v1"
"$build/tools/reticlec" --device=small --emit=placed \
    --profile-folded=- \
    "$repo/examples/programs/mac.ret" | grep -q "^compile;"

if [ "${RUN_BENCH:-0}" = "1" ]; then
    echo "== benches (RUN_BENCH=1) =="
    # Opt-in: the microbenchmarks are informative, not gating, so the
    # default run skips them. Any bench binary the build produced runs
    # once with its defaults; each writes its BENCH_*.json into $out.
    for bench in sim_throughput place_throughput fig4_dsp_add \
                 fig13a_tensoradd fig13b_tensordot fig13c_fsm \
                 compile_time ablation; do
        if [ -x "$build/bench/$bench" ]; then
            echo "-- bench/$bench"
            (cd "$out" && "$build/bench/$bench")
        fi
    done
    # The sim bench doc is a contract: schema, the observability targets
    # the ratio_vs_bare rows are read against, one cycles_per_sec per
    # series row (every program/engine/mode triple), and the profiled VM
    # rows with their overhead_vs_none cost figure.
    "$build/tools/json_check" --require=schema --require=figure \
        --require=targets.vcd_vs_bare --require=targets.cov_vs_bare \
        --nonempty=series "$out/BENCH_sim.json"
    grep -q '"ratio_vs_bare"' "$out/BENCH_sim.json"
    test "$(grep -c '"engine"' "$out/BENCH_sim.json")" = \
         "$(grep -c '"cycles_per_sec"' "$out/BENCH_sim.json")"
    grep -q '"profiled"' "$out/BENCH_sim.json"
    grep -q '"overhead_vs_none"' "$out/BENCH_sim.json"
    # The placement bench doc carries the per-mode series rows and the
    # propagate-vs-scratch speedup block the acceptance bar reads.
    "$build/tools/json_check" --require=schema --require=figure \
        --nonempty=series --nonempty=speedup "$out/BENCH_place.json"
    grep -q '"propagate_vs_scratch"' "$out/BENCH_place.json"
fi

echo "== ThreadSanitizer build: concurrent batch compile =="
cmake -B "$repo/build-tsan" -S "$repo" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build "$repo/build-tsan" -j"$jobs" \
    --target batch_race_check sim_vm_race_check reticlec json_check
"$repo/build-tsan/tests/batch_race_check"
"$repo/build-tsan/tests/sim_vm_race_check"
"$repo/build-tsan/tools/reticlec" --device=small --jobs=4 \
    --out-dir="$out/batch-tsan" \
    --stats-json="$out/batch-tsan/summary.json" \
    "$repo/examples/programs/mac.ret" \
    "$repo/examples/programs/dot3.ret" \
    "$repo/examples/programs/scalar_adds.ret"
"$repo/build-tsan/tools/json_check" --batch-summary \
    "$out/batch-tsan/summary.json"

echo "== AddressSanitizer + UBSan build: the whole ctest suite =="
cmake -B "$repo/build-asan" -S "$repo" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all -D_GLIBCXX_ASSERTIONS -fno-omit-frame-pointer -g" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined"
cmake --build "$repo/build-asan" -j"$jobs"
(cd "$repo/build-asan" && ctest --output-on-failure -j"$jobs")

echo "ok: build, tests, and all emitted artifacts check out"
