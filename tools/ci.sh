#!/usr/bin/env bash
# Tier-1 CI entry point: configure, build, and test under CMake presets.
# src/obs/ builds with -Werror, so any warning there fails the build.
# Usage:
#
#   tools/ci.sh            # default + asan + tsan + obsoff, in order
#   tools/ci.sh default    # release build + full ctest only
#   tools/ci.sh asan       # AddressSanitizer+UBSan build + ctest only
#   tools/ci.sh tsan       # ThreadSanitizer build + ctest only
#   tools/ci.sh obsoff     # GRAPHABCD_OBS=OFF build + ctest only
#                          # (proves instrumentation compiles out)
set -euo pipefail

cd "$(dirname "$0")/.."

run_preset() {
    local preset="$1"

    echo "== configure (${preset}) =="
    cmake --preset "${preset}"

    echo "== build (${preset}) =="
    cmake --build --preset "${preset}" -j "$(nproc)"

    echo "== test (${preset}) =="
    ctest --preset "${preset}"

    # The varint/delta codec and the compressed-layout decode loops are
    # pointer-walking code over packed byte streams — exactly what ASan
    # is for.  Rerun the codec tests with the randomized round-trip
    # count cranked up so each CI run covers many adversarial streams.
    if [ "${preset}" = "asan" ]; then
        echo "== codec fuzz (${preset}) =="
        GRAPHABCD_CODEC_FUZZ_ITERS=2000 \
            "./build-asan/tests/abcd_tests" \
            --gtest_filter='Codec*'

        # The serve shell parses every request line from outside:
        # feed it a seeded mix of verbs, keys and odd values (0, -1,
        # nan, inf, 1e30, empty, garbage) under ASan.  Each reply must
        # start OK or ERR, and no converged job may show zero block
        # updates.
        echo "== serve protocol fuzz (${preset}) =="
        python3 tools/serve_fuzz.py ./build-asan/tools/abcd_serve 1
    fi

    # The obs-off build must still compile and pass the compressed
    # layout paths (the bytes-moved tallies are plain atomics, not obs
    # instrumentation, so they work in both builds), and the tenant QoS
    # admission path (per-tenant gauges/histograms compile out but the
    # fair-share scheduling itself must not change).
    if [ "${preset}" = "obsoff" ]; then
        echo "== layout equivalence (${preset}) =="
        "./build-obsoff/tests/abcd_tests" \
            --gtest_filter='Layout*:Codec*:FairShareQueue.*:ServeQosStress.*'
    fi

    if [ "${preset}" = "tsan" ]; then
        # The shared block pump is the most concurrency-dense code in
        # the repo.  Rerun its cancel storm once per user: the async
        # engine (dispatch FIFO) and the accumulative engine (block
        # accumulators handed between participants under per-block
        # locks); both claim blocks exclusively and commit their
        # activation batches under the control lock.
        # The default iteration count keeps plain ctest fast; here it
        # runs heavier to cover many claim/commit/drain interleavings
        # under the race detector.
        # The Activation tests run every schedule's batched commits on
        # 4 participants; the combiner and pump-recycling tests cover
        # the per-participant state the pump hands between tasks; the
        # AccumState and AccumConservation tests run the block-lock
        # hand-off with two participants in flight at once and the
        # wake-up contract at 1, 2 and 4 participants; the Published
        # tests pin what GATHER reads from the published copies.  The
        # PartitionBuild tests run the partition build's sort and pack
        # tasks on a 4-worker pool.
        echo "== pump stress (${preset}) =="
        GRAPHABCD_PUMP_STRESS_ITERS=24 \
            "./build-tsan/tests/abcd_tests" \
            --gtest_filter='*PumpStress.*:Activation.*:AccumCombiner.*:AccumState.*:AccumConservation.*:BlockPump.*:Published.*:PartitionBuild.*'

        # The serve layer's cancel/cache-hit/shed races are guarded by
        # finishJob's terminal CAS; rerun the multi-tenant storm heavier
        # so TSan sees many submit/cancel/pop/displace interleavings.
        echo "== serve qos stress (${preset}) =="
        GRAPHABCD_QOS_STRESS_ITERS=12 \
            "./build-tsan/tests/abcd_tests" \
            --gtest_filter='ServeQosStress.*'

        # The metrics endpoint is scraped while engines hammer the same
        # counters/histograms (including the exemplar slot, which mixes
        # lock-free records with a mutex-guarded triple); run the
        # concurrent-scrape stress under the race detector.
        echo "== metrics scrape stress (${preset}) =="
        "./build-tsan/tests/abcd_tests" \
            --gtest_filter='MetricsServerStress.*'
    fi

    # Observability drill (release build): drive a traced async job
    # through abcd_serve end-to-end, then validate the debugging
    # artifacts — the Chrome trace must contain exactly one causally
    # connected span tree for the job, and the DUMP verb must produce a
    # parseable flight-recorder snapshot.  A second session runs the
    # wedge drill engine (enabled only by env var; it burns wall-clock
    # without ever moving its progress counters) and must be flagged by
    # the stall watchdog and escalated to cancellation.
    if [ "${preset}" = "default" ]; then
        echo "== observability drill (${preset}) =="
        obs_dir="$(mktemp -d)"
        printf '%s\n' \
            "LOAD web WT scale=0.05" \
            "RUN web pr engine=async threads=2" \
            "WAIT 1 60" \
            "TRACE ${obs_dir}/trace.json" \
            "DUMP ${obs_dir}/flight.json" \
            "QUIT" \
            | "./build/tools/abcd_serve" \
                --flight="${obs_dir}/fatal.json" \
                > "${obs_dir}/serve.out" 2>&1
        grep -q "state=done" "${obs_dir}/serve.out"
        python3 - "${obs_dir}/trace.json" "${obs_dir}/flight.json" <<'PY'
import json, sys

trace = json.load(open(sys.argv[1]))
nodes = {}   # span id -> parent id, for job 1
names = {}
for e in trace["traceEvents"]:
    args = e.get("args")
    if not args or args.get("job") != 1:
        continue
    nodes[args["span"]] = args["parent"]
    names[e["name"]] = names.get(e["name"], 0) + 1
roots = [s for s, p in nodes.items() if p == 0]
assert len(roots) == 1, "want one span-tree root, got %r" % roots
for s in nodes:
    hops = 0
    while s != roots[0]:
        assert s in nodes, "orphaned span %r" % s
        s = nodes[s]
        hops += 1
        assert hops < 64, "parent cycle"
for want in ("serve.job", "serve.run", "engine.async.run",
             "executor.task"):
    assert names.get(want), "missing %s spans in %r" % (want, sorted(names))

flight = json.load(open(sys.argv[2]))
for key in ("reason", "notes", "log", "providers", "metrics", "trace"):
    assert key in flight, "flight dump missing %r" % key
assert "serve" in flight["providers"], "serve provider absent"
embedded = [e for e in flight["trace"]["traceEvents"]
            if e.get("args", {}).get("job") == 1]
assert embedded, "flight dump trace lacks the job's span tree"
print("drill ok: %d spans in one tree, flight dump embeds %d of them"
      % (len(nodes), len(embedded)))
PY

        echo "== stall watchdog drill (${preset}) =="
        printf '%s\n' \
            "LOAD tiny WT scale=0.02" \
            "RUN tiny pr engine=wedge" \
            "WAIT 1 30" \
            "QUIT" \
            | GRAPHABCD_ENABLE_WEDGE_ENGINE=1 "./build/tools/abcd_serve" \
                --stall-window=0.2 --stall-check=0.05 \
                --stall-cancel=true \
                > "${obs_dir}/wedge.out" 2>&1
        grep -q "state=cancelled" "${obs_dir}/wedge.out"
        grep -q "error=stalled:" "${obs_dir}/wedge.out"

        # Request validation: a negative count, unknown keys, a zero
        # block size, an unknown schedule and a switch other than 0|1
        # are refused with ERR BadCommand; zero threads, an unknown
        # engine, a non-finite priority and a NaN or negative timeout
        # with ERR BadRequest and validate's reason.  None of them
        # runs.  A binary edge list whose edge 1 (2 -> 9) leaves its 4
        # vertices, and a dataset scale that is not positive or does
        # not fit the id types, are bad input: ERR LoadFailed naming
        # the file or the scale, not a failed assertion.
        echo "== request validation drill (${preset}) =="
        local bad_bin="${obs_dir}/bad_endpoint.bin"
        python3 -c 'import struct, sys
open(sys.argv[1], "wb").write(
    b"ABCD" + struct.pack("<IIQ", 1, 4, 2) +
    struct.pack("<IIf", 0, 1, 1.0) + struct.pack("<IIf", 2, 9, 1.0))' \
            "${bad_bin}"
        printf '%s\n' \
            "LOAD web WT scale=0.02" \
            "LOAD bad ${bad_bin}" \
            "RUN web pr threads=-1" \
            "RUN web pr bogus=1" \
            "LOAD w WT scale=0.02 block-size=0" \
            "RUN web pr fragments=4" \
            "RUN web pr threads=0" \
            "RUN web pr engine=fragment" \
            "RUN web pr engine=accum schedule=obim" \
            "RUN web pr priority=nan" \
            "RUN web pr priority=inf" \
            "RUN web pr timeout=nan" \
            "RUN web pr timeout=-5" \
            "RUN web pr cached=7" \
            "LOAD u WT scale=0.02 undirected=nan" \
            "LOAD x WT scale=inf" \
            "LOAD y WT scale=-1" \
            "LOAD z WT scale=1e30" \
            "QUIT" \
            | "./build/tools/abcd_serve" > "${obs_dir}/validate.out" 2>&1
        [ "$(grep -c "ERR BadCommand" "${obs_dir}/validate.out")" -eq 7 ]
        [ "$(grep -c "ERR BadRequest" "${obs_dir}/validate.out")" -eq 6 ]
        [ "$(grep -c "ERR BadRequest priority must be finite" \
            "${obs_dir}/validate.out")" -eq 2 ]
        [ "$(grep -c \
            "ERR BadRequest timeout must be finite and non-negative" \
            "${obs_dir}/validate.out")" -eq 2 ]
        grep -q "ERR BadCommand cached must be 0 or 1" \
            "${obs_dir}/validate.out"
        grep -q "ERR BadCommand undirected must be 0 or 1" \
            "${obs_dir}/validate.out"
        for scale in inf -1 1e+30; do
            grep -q "^ERR LoadFailed dataset scale ${scale} is out of range" \
                "${obs_dir}/validate.out"
        done
        grep -q "ERR BadCommand block-size must be positive" \
            "${obs_dir}/validate.out"
        grep -q "ERR BadCommand unknown key 'fragments'" \
            "${obs_dir}/validate.out"
        grep -q "ERR BadCommand unknown schedule 'obim'" \
            "${obs_dir}/validate.out"
        grep -q "ERR BadRequest threads must be positive" \
            "${obs_dir}/validate.out"
        grep -q "ERR BadRequest unknown engine 'fragment'" \
            "${obs_dir}/validate.out"
        [ "$(grep -c "^OK job" "${obs_dir}/validate.out")" -eq 0 ]
        grep -q \
            "^ERR LoadFailed '${bad_bin}': edge 1 (2 -> 9) has endpoint 9" \
            "${obs_dir}/validate.out"
        [ "$(grep -c "assertion" "${obs_dir}/validate.out")" -eq 0 ]

        # A finished job hands its values out once and keeps only a
        # weak reference; with the result cache off, the shell must
        # still answer VALUE for one job vertex after vertex.
        echo "== value re-read drill (${preset}) =="
        printf '%s\n' \
            "LOAD web WT scale=0.02" \
            "RUN web pr" \
            "WAIT 1 60" \
            "VALUE 1 0" \
            "VALUE 1 1" \
            "VALUE 1 0" \
            "QUIT" \
            | "./build/tools/abcd_serve" --cache=0 \
                > "${obs_dir}/value.out" 2>&1
        [ "$(grep -c "^OK value" "${obs_dir}/value.out")" -eq 3 ]

        # A terminal job keeps no handle on the partition it ran on:
        # once a cold and a cache-served run of one graph have finished,
        # the registry holds its only reference (refs=1).  WAIT on an
        # unknown id answers NotFound at once, and a timeout that is
        # not a finite number is a BadCommand naming it.
        echo "== terminal job drill (${preset}) =="
        printf '%s\n' \
            "LOAD web WT scale=0.02" \
            "RUN web pr" \
            "WAIT 1 60" \
            "RUN web pr" \
            "WAIT 2 60" \
            "GRAPHS" \
            "WAIT 99 1" \
            "WAIT 1 nan" \
            "QUIT" \
            | "./build/tools/abcd_serve" > "${obs_dir}/terminal.out" 2>&1
        grep -q "^OK job 2 state=done .*cachehit=1" "${obs_dir}/terminal.out"
        grep -q "^  web .* refs=1$" "${obs_dir}/terminal.out"
        grep -q "^ERR NotFound no job 99$" "${obs_dir}/terminal.out"
        grep -q "^ERR BadCommand timeout 'nan'" "${obs_dir}/terminal.out"

        # Paper benches at a small scale: each must exit 0 and print its
        # GraphMat column with a number in every row (Table III) or in
        # each of the 5 supersteps run (Fig. 5).  The NF stand-in has
        # 391 vertices at this scale, so Fig. 5 cuts 64-vertex blocks:
        # at the default 512 GraphABCD would run one block, as GraphMat.
        echo "== paper bench smoke (${preset}) =="
        ./build/bench/table3_iterations --scale 0.05 \
            > "${obs_dir}/table3.out"
        ./build/bench/fig5_cf_rmse --scale 0.05 --iterations 5 \
            --block-size 64 > "${obs_dir}/fig5.out"
        python3 - "${obs_dir}/table3.out" "GraphMat iters" 11 \
            "${obs_dir}/fig5.out" "GraphMat RMSE" 5 <<'PY'
import sys

args = sys.argv[1:]
for path, column, want in zip(args[0::3], args[1::3], args[2::3]):
    rows = [[c.strip() for c in line.strip().strip("|").split("|")]
            for line in open(path) if line.startswith("|")]
    assert rows and column in rows[0], "%s: no %r column" % (path, column)
    col = rows[0].index(column)
    numeric = 0
    for row in rows[2:]:
        try:
            float(row[col])
            numeric += 1
        except ValueError:
            pass
    assert numeric >= int(want), \
        "%s: %r has %d numbers, want %s" % (path, column, numeric, want)
    print("%s: %r has %d numbers" % (path, column, numeric))
PY
        rm -rf "${obs_dir}"
    fi

    echo "== ${preset}: OK =="
}

if [ "$#" -ge 1 ]; then
    presets=("$@")
else
    presets=(default asan tsan obsoff)
fi

for preset in "${presets[@]}"; do
    run_preset "${preset}"
done

echo "== all presets OK: ${presets[*]} =="
