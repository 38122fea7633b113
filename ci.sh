#!/bin/sh
# Repository CI gate: formatting, static analysis, build, tests, and a
# race-detector pass over every package (the parallel execution engine
# makes the whole tree a concurrency surface). Run from the repository
# root.
#
#   ./ci.sh                    # the gate
#   ./ci.sh bench              # benchmarks -> BENCH_<date>_<rev>.json
#                              # (rev: git describe --always --dirty of
#                              # the measured tree; a record taken
#                              # before its change is committed is
#                              # named <base>-dirty, after the commit
#                              # the tree sits on, not the one that
#                              # adds the record), diffed against the
#                              # most recently committed
#                              # BENCH_*.json: >10% regression in
#                              # ns/op or allocs/op on the E-series
#                              # benchmarks fails the run
#   ./ci.sh bench --warn-only  # report regressions without failing
#   ./ci.sh soak-smoke         # fleet-API soak gate: 200+ HTTP-driven
#                              # VM lifecycles, zero leaked VMs/pages,
#                              # p99 latency per phase reported
#   ./ci.sh soak-smoke --warn-only
#   ./ci.sh loc [rev]          # non-test Go lines outside bench/ (tracked
#                              # files and untracked ones not ignored);
#                              # with a rev, also the lines added,
#                              # deleted and net from rev to the working
#                              # tree
set -eu

if [ "${1:-}" = "loc" ]; then
    # gofiles lists the counted files: Go, not tests, not under bench/.
    gofiles() { git ls-files "$@" -- '*.go' ':!*_test.go' ':!bench/'; }
    lines() { while read -r f; do [ -f "$f" ] && cat "$f"; done | wc -l; }
    total=$(gofiles --cached --others --exclude-standard | lines)
    echo "non-test Go lines outside bench/: $total"
    if [ -n "${2:-}" ]; then
        new=$(gofiles --others --exclude-standard | lines)
        git diff --numstat "$2" -- '*.go' ':!*_test.go' ':!bench/' |
            awk -v rev="$2" -v new="$new" '
                { add += $1; del += $2 }
                END {
                    add += new
                    printf "against %s: +%d -%d, net %+d\n", rev, add, del, add - del
                }'
    fi
    exit 0
fi

if [ "${1:-}" = "soak-smoke" ]; then
    warn_only=0
    [ "${2:-}" = "--warn-only" ] && warn_only=1
    echo "== fleet-API soak smoke (two epochs x 100 lifecycles, leak gate)"
    if go run ./cmd/experiments -soak -lifecycles 100 -clients 8 -tenants 4; then
        echo "soak smoke OK"
    else
        if [ "$warn_only" = 1 ]; then
            echo "soak smoke failed (warn-only): not failing" >&2
        else
            echo "soak smoke failed; rerun with --warn-only to continue anyway" >&2
            exit 1
        fi
    fi
    exit 0
fi

if [ "${1:-}" = "bench" ]; then
    warn_only=0
    [ "${2:-}" = "--warn-only" ] && warn_only=1
    out="BENCH_$(date +%Y-%m-%d)_$(git describe --always --dirty 2>/dev/null || echo norev).json"
    # The rev names the measured tree; "<base>-dirty" is the commit it
    # sits on, so it keeps two records of one day apart but does not
    # order them. The previous record is the one a commit added or
    # changed last: git log lists the commits touching BENCH_*.json
    # newest first.
    prev=""
    for f in $(git log --format= --name-only --diff-filter=AM -- 'BENCH_*.json' 2>/dev/null); do
        if [ "$f" != "$out" ] && [ -f "$f" ]; then prev="$f"; break; fi
    done
    echo "== go test -bench -> $out"
    go test -run '^$' -bench . -benchmem -count=1 . |
    awk '
        BEGIN { print "[" }
        /^Benchmark/ {
            name = $1; nsop = ""; instr = ""; bop = ""; allocs = ""
            for (i = 2; i <= NF; i++) {
                if ($(i) == "ns/op")     nsop  = $(i-1)
                if ($(i) == "instr/sec") instr = $(i-1)
                if ($(i) == "B/op")      bop   = $(i-1)
                if ($(i) == "allocs/op") allocs = $(i-1)
            }
            if (n++) printf ",\n"
            printf "  {\"name\": \"%s\", \"iterations\": %s", name, $2
            if (nsop   != "") printf ", \"ns_per_op\": %s", nsop
            if (instr  != "") printf ", \"instr_per_sec\": %s", instr
            if (bop    != "") printf ", \"bytes_per_op\": %s", bop
            if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
            printf "}"
        }
        END { print "\n]" }
    ' > "$out"
    echo "wrote $out"
    if [ -n "$prev" ]; then
        echo "== bench diff vs $prev (E-series, >10% ns/op or allocs/op regression fails)"
        if awk -v prevfile="$prev" -v curfile="$out" '
            function load(file, tab,    line, name, key, val, n, i, parts) {
                while ((getline line < file) > 0) {
                    if (line !~ /"name"/) continue
                    gsub(/[{}",]/, "", line)
                    name = ""
                    n = split(line, parts, " ")
                    for (i = 1; i < n; i++) {
                        key = parts[i]; val = parts[i+1]
                        # Drop the -GOMAXPROCS suffix a multi-core host
                        # appends, so records from different hosts match.
                        if (key == "name:") { name = val; sub(/-[0-9]+$/, "", name) }
                        if (key == "ns_per_op:")     tab[name ":ns"] = val
                        if (key == "allocs_per_op:") tab[name ":allocs"] = val
                    }
                }
                close(file)
            }
            BEGIN {
                load(prevfile, old); load(curfile, cur)
                nbench = split("BenchmarkE2ShadowCache BenchmarkE3FaultsPerSwitch BenchmarkE9CostSensitivity", benches, " ")
                bad = 0
                for (i = 1; i <= nbench; i++) {
                    b = benches[i]
                    gated[b] = 1
                    nmetric = split("ns allocs", metrics, " ")
                    for (j = 1; j <= nmetric; j++) {
                        m = metrics[j]; k = b ":" m
                        # A gated benchmark absent from the current run is a
                        # coverage regression, not a skip: fail loudly.
                        if (!(k in cur)) {
                            printf "  MISSING: %s %s/op absent from current run\n", b, m
                            bad = 1
                            continue
                        }
                        # First appearance (or zero baseline): record, never gate.
                        if (!(k in old) || old[k] + 0 == 0) {
                            printf "  %-28s %-6s %14s -> %14s  (new, no baseline)\n", b, m, "-", cur[k]
                            continue
                        }
                        ratio = cur[k] / old[k]
                        printf "  %-28s %-6s %14s -> %14s  (%+.1f%%)\n", b, m, old[k], cur[k], (ratio - 1) * 100
                        if (ratio > 1.10) {
                            printf "  REGRESSION: %s %s/op grew more than 10%%\n", b, m
                            bad = 1
                        }
                    }
                }
                # Benchmarks present only in the newer file (BenchmarkVMClone,
                # clone-backed density variants, ...) are informational: they
                # gain a baseline for the NEXT diff, and must neither trip the
                # gate nor vanish silently.
                for (k in cur) {
                    if (k !~ /:ns$/ || k in old) continue
                    name = substr(k, 1, length(k) - 3)
                    if (name in gated) continue
                    printf "  NEW (no baseline): %s\n", name
                }
                exit bad
            }'
        then :; else
            if [ "$warn_only" = 1 ]; then
                echo "bench regression (warn-only): not failing" >&2
            else
                echo "bench regression vs $prev; rerun with --warn-only to record anyway" >&2
                exit 1
            fi
        fi
        echo "== parallel/serial throughput ratio at 8 VMs (>10% drop fails)"
        if awk -v prevfile="$prev" -v curfile="$out" '
            function load(file, tab,    line, name, key, val, n, i, parts) {
                while ((getline line < file) > 0) {
                    if (line !~ /"name"/) continue
                    gsub(/[{}",]/, "", line)
                    name = ""
                    n = split(line, parts, " ")
                    for (i = 1; i < n; i++) {
                        key = parts[i]; val = parts[i+1]
                        if (key == "name:") name = val
                        if (key == "instr_per_sec:") tab[name] = val
                    }
                }
                close(file)
            }
            # rate matches by substring so GOMAXPROCS name suffixes
            # (present on multi-core hosts, absent on one core) do not
            # break the lookup.
            function rate(tab, pat,    k) {
                for (k in tab) if (index(k, pat)) return tab[k] + 0
                return 0
            }
            BEGIN {
                load(prevfile, old); load(curfile, cur)
                cs = rate(cur, "MultiVMScaling/serial_8VM")
                cp = rate(cur, "MultiVMScaling/parallel_8VM_8w")
                if (cs == 0 || cp == 0) {
                    print "  8-VM scaling numbers missing from current run; skipping"
                    exit 0
                }
                printf "  current  parallel/serial = %.3f\n", cp / cs
                os = rate(old, "MultiVMScaling/serial_8VM")
                op = rate(old, "MultiVMScaling/parallel_8VM_8w")
                if (os == 0 || op == 0) {
                    print "  no previous 8-VM numbers; recording only"
                    exit 0
                }
                printf "  previous parallel/serial = %.3f\n", op / os
                if (cp / cs < op / os * 0.90) {
                    print "  REGRESSION: parallel speedup at 8 VMs dropped more than 10%"
                    exit 1
                }
                exit 0
            }'
        then :; else
            if [ "$warn_only" = 1 ]; then
                echo "parallel-ratio regression (warn-only): not failing" >&2
            else
                echo "parallel-ratio regression vs $prev; rerun with --warn-only to record anyway" >&2
                exit 1
            fi
        fi
    else
        echo "== no previous BENCH_*.json to diff against"
    fi
    exit 0
fi

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== go test"
go test ./...

echo "== go test -race (all packages)"
go test -race ./...

echo "== migration race check (event-log, decode-hygiene, mailbox and page-pool tests on the parallel engine, -count=10)"
# A VM's event log is unsynchronized: only the worker running the VM
# writes it, and readers wait for the merge barrier. A VM stays on one
# worker for a whole run, so its decodes never move mid-run; what
# crosses engines is the root's decode cache, which the merge flushes
# because the workers' stores changed the VMs' pages under it. Host
# goroutines post interrupts into running VMs' mailboxes. Every shard
# allocation takes the shared page-pool mutex, and the clone smoke (256
# overcommitted clones on 8 workers) is where shards allocate
# concurrently. Each VM's counts must also repeat exactly however the
# workers interleave. Repeating the tests that cross those handoffs
# gives a rare interleaving ten chances to show.
go test -race -count=10 \
    -run '^(TestRecorderParallelAllShards|TestAuditTrailParallel|TestEventLogRetentionBothEngines|TestRecoverUnderParallel|TestMigrationDropsStaleDecodes|TestCloneSmokeParity|TestHaltedVMRunsRecycledAfterParallelRun|TestParkPostWakeChurn|TestParallelRepeatable)$' \
    ./internal/core/

echo "== fuzz: checkpoint decoder and both restore paths (10 s each)"
# Checkpoint bytes are a trust boundary: arbitrary input must end in a
# typed error, never a panic, and a refused restore must hold no pages.
# Minimizing each new interesting input is capped at 100 runs: with the
# default 60 s cap, minimizing took the whole 10 s of FuzzRestore at
# 0 execs/s, where the cap leaves about 20k execs/s on a 2-vCPU host.
go test -run '^$' -fuzz '^FuzzCheckpointDecode$' -fuzztime 10s -fuzzminimizetime 100x ./internal/ckpt/
go test -run '^$' -fuzz '^FuzzRestore$' -fuzztime 10s -fuzzminimizetime 100x ./internal/core/

echo "== fuzz: decode-cache coherence under self-modifying code (10 s)"
# Differential: a loop storing around and over its own instructions
# must leave Run (decode cache on) and one Step at a time with the
# cache flushed before every step in the same registers, PSL, memory
# and cycles.
go test -run '^$' -fuzz '^FuzzSelfModifyingCode$' -fuzztime 10s -fuzzminimizetime 100x ./internal/cpu/

echo "== fuzz: one-instruction loops in closed form (10 s)"
# Differential: a SOBGTR or SOBGEQ branching to itself (any counter,
# mapped or not, optionally a wait its ISR ends) under a device whose
# period ends its steps must leave Run, which applies the iterations of
# a step at once, and one Step at a time in the same registers, PSL,
# cycles, counters, device state and interrupt delivery points.
go test -run '^$' -fuzz '^FuzzOneInstructionLoop$' -fuzztime 10s -fuzzminimizetime 100x ./internal/cpu/

# bench/ is a module of its own, so the root ./... patterns skip it; its
# smoke test checks the workload catalogue against BENCHMARK.json, the
# correctness checks and seed repeatability.
echo "== benchmark module: go vet, go test"
(cd bench && go vet ./... && go test ./...)

echo "== trace-overhead smoke (E3: recorder off vs on, median per-pair delta >5% fails)"
# Noise model: nine off/on pairs, gated on the median of the per-pair
# on/off ratios. A pair is one run of BenchmarkE3RecorderOverhead: 200
# iterations, each running E3 once with the recorder off and once with
# it on, the side that runs first alternating. On a 2-vCPU shared host,
# separate processes running the same code differ by up to +-20% (CPU
# placement, memory layout, the neighbours' phase); pairing the two
# sides inside one process cancels that, and the median ignores up to
# four pairs hit by a burst. Pairs built from two processes each swung
# the gate's median from -2% to +10% and failed 3 of 10 runs with the
# recorder's cost near 2%.
benchbin=$(mktemp)
go test -c -o "$benchbin" .
pairs=""
for pass in 1 2 3 4 5 6 7 8 9; do
    pair=$("$benchbin" -test.run '^$' -test.bench 'BenchmarkE3RecorderOverhead$' -test.benchtime 200x |
        awk '/^BenchmarkE3/ {
            for (i = 2; i <= NF; i++) {
                if ($(i) == "off-ns/op") off = $(i-1)
                if ($(i) == "on-ns/op") on = $(i-1)
            }
        } END { print off + 0 ":" on + 0 }')
    pairs="$pairs $pair"
done
rm -f "$benchbin"
echo "$pairs" | awk '{
    for (i = 1; i <= NF; i++) {
        split($(i), p, ":")
        if (p[1] + 0 == 0 || p[2] + 0 == 0) { print "  no benchmark output"; exit 1 }
        r[i] = p[2] / p[1]
        printf "  pair %d: off %d on %d ns/op (%+.1f%%)\n", i, p[1], p[2], (r[i] - 1) * 100
    }
    for (i = 2; i <= NF; i++)
        for (j = i; j > 1 && r[j] < r[j-1]; j--) { t = r[j]; r[j] = r[j-1]; r[j-1] = t }
    delta = (r[int((NF + 1) / 2)] - 1) * 100
    printf "  recorder-on delta (median of %d pairs) %+.1f%%\n", NF, delta
    if (delta > 5) { print "  REGRESSION: recorder-on E3 more than 5% slower"; exit 1 }
}'

echo "== run-loop gate (bound instructions run back to back between device deadlines; delay loops in closed form)"
# Deterministic: on the throughput loop and on the §7.3 mix's
# memory-move loops (MOVB R3, (R2)+ fill, MOVL (R6)+, (R7)+ copy), Run
# must tick a device with a 5000-cycle period at most once per 100
# instructions, and the device must see the same summed cycles as one
# Step at a time gives it. A SOBGTR to itself from 0x80000000 (2^31
# iterations) must finish with the exact counts within one second: one
# iteration per step takes tens of seconds.
go test -count=1 -run '^(TestRunLoopBatchesDeviceTicks|TestRunDelayLoopClosedForm)$' .

echo "== experiments output identical to EXPERIMENTS.md"
tmpmd=$(mktemp) tmpwant=$(mktemp) tmpgot=$(mktemp)
go run ./cmd/experiments -md > "$tmpmd"
grep -q '^## T1' "$tmpmd" || { echo "generated output missing '## T1' marker" >&2; exit 1; }
sed -n '/^## T1/,$p' EXPERIMENTS.md > "$tmpwant"
sed -n '/^## T1/,$p' "$tmpmd" > "$tmpgot"
if ! diff "$tmpwant" "$tmpgot"; then
    echo "EXPERIMENTS.md body diverges from the experiments' output; regenerate it" >&2
    rm -f "$tmpmd" "$tmpwant" "$tmpgot"
    exit 1
fi
rm -f "$tmpmd" "$tmpwant" "$tmpgot"

echo "== examples (each exits non-zero when its guest dies or its own check fails)"
for ex in examples/*/; do
    go run "./$ex" > /dev/null
done

echo "== clone smoke (256 clones: shared pages, completion, parity with boots)"
go test -run 'TestCloneSmokeParity$' -count=1 ./internal/core/ > /dev/null

echo "== fleet-API soak smoke (200+ lifecycles over HTTP, leak gate)"
./ci.sh soak-smoke

echo "== fault-injection campaign (fixed seeds)"
go run ./cmd/experiments -faults -seeds 8 -seedbase 1 > /dev/null

echo "== recovery campaign (fixed seeds)"
go run ./cmd/experiments -recover -seeds 8 -seedbase 1 > /dev/null

echo "CI OK"
