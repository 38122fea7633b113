#!/bin/sh
# Repository CI gate: formatting, static analysis, build, tests, and a
# race-detector pass over every package (the parallel execution engine
# makes the whole tree a concurrency surface). Run from the repository
# root.
#
#   ./ci.sh                    # the gate
#   ./ci.sh bench              # benchmarks -> BENCH_<date>.json, diffed
#                              # against the most recent committed
#                              # BENCH_*.json: >10% regression in
#                              # ns/op or allocs/op on the E-series
#                              # benchmarks fails the run
#   ./ci.sh bench --warn-only  # report regressions without failing
#   ./ci.sh soak-smoke         # fleet-API soak gate: 200+ HTTP-driven
#                              # VM lifecycles, zero leaked VMs/pages,
#                              # p99 latency per phase reported
#   ./ci.sh soak-smoke --warn-only
set -eu

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
    out="BENCH_$(date +%Y-%m-%d).json"
    prev=""
    for f in $(ls -r BENCH_*.json 2>/dev/null); do
        if [ "$f" != "$out" ]; then prev="$f"; break; fi
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

# bench/ is a module of its own, so the root ./... patterns skip it; its
# smoke test checks the workload catalogue against BENCHMARK.json, the
# correctness checks and seed repeatability.
echo "== benchmark module: go vet, go test"
(cd bench && go vet ./... && go test ./...)

echo "== trace-overhead smoke (E3: recorder off vs on, >5% ns/op delta fails)"
min_ns() {
    awk '/^BenchmarkE3/ {
        for (i = 2; i <= NF; i++)
            if ($(i) == "ns/op" && (best == 0 || $(i-1) + 0 < best)) best = $(i-1) + 0
    } END { print best + 0 }'
}
# Interleave the off/on measurements (three alternating pairs, min of
# each) so slow drift on a noisy host lands on both sides instead of
# biasing whichever block ran second. 200 runs of E3 (5-7 ms each) keep
# each measurement near a second, as in the tier gate below. On a 2-vCPU
# shared host the gate's delta spanned -25%..+25% at 5 runs and
# -8%..+9% at 200 (ten gates each, recorder cost near 0%): the host's
# speed drifts in phases longer than a measurement, so this gate can
# still fail without a regression.
off=0; on=0
for pass in 1 2 3; do
    o=$(go test -run '^$' -bench BenchmarkE3FaultsPerSwitch -benchtime 200x . | min_ns)
    n=$(VAX_TRACE=1024 go test -run '^$' -bench BenchmarkE3FaultsPerSwitch -benchtime 200x . | min_ns)
    if [ "$off" = 0 ] || [ "$o" -lt "$off" ]; then off=$o; fi
    if [ "$on" = 0 ] || [ "$n" -lt "$on" ]; then on=$n; fi
done
echo "  E3 ns/op (min of 3 interleaved): recorder off $off, on $on"
awk -v off="$off" -v on="$on" 'BEGIN {
    if (off + 0 == 0 || on + 0 == 0) { print "  no benchmark output"; exit 1 }
    delta = (on - off) / off * 100
    printf "  recorder-on delta %+.1f%%\n", delta
    if (delta > 5) { print "  REGRESSION: recorder-on E3 more than 5% slower"; exit 1 }
}'

echo "== translation-tier gate (superblock vs interpreter instr/sec, <1.5x fails)"
best_rate() {
    awk '/^Benchmark/ {
        for (i = 2; i <= NF; i++)
            if ($(i) == "instr/sec" && $(i-1) + 0 > best) best = $(i-1) + 0
    } END { print best + 0 }'
}
# Interleave baseline/tier measurements (three alternating pairs, best
# of each) so host noise lands on both sides of the ratio. 20000 runs of
# the 2003-instruction loop keep each measurement near a second; a
# handful of runs measured scheduler noise, not the tiers.
#
# The threshold: tier-off replay runs register/literal instructions in
# their pre-bound form too, so the tier's remaining edge is dispatch and
# interrupt-poll hoisting, measured at 2.0-2.7x best-of-3 (2-vCPU
# shared host). 1.5x sits below that noise band and well above the
# ~1.0x of a tier that stopped entering superblocks.
base=0; tier=0
for pass in 1 2 3; do
    b=$(go test -run '^$' -bench 'BenchmarkInterpreterThroughput$' -benchtime 20000x . | best_rate)
    t=$(go test -run '^$' -bench 'BenchmarkTranslationThroughput$' -benchtime 20000x . | best_rate)
    if [ "$(echo "$b $base" | awk '{print ($1 > $2)}')" = 1 ]; then base=$b; fi
    if [ "$(echo "$t $tier" | awk '{print ($1 > $2)}')" = 1 ]; then tier=$t; fi
done
echo "  instr/sec (best of 3 interleaved): interpreter $base, translation $tier"
awk -v base="$base" -v tier="$tier" 'BEGIN {
    if (base + 0 == 0 || tier + 0 == 0) { print "  no benchmark output"; exit 1 }
    printf "  translation speedup %.2fx\n", tier / base
    if (tier / base < 1.5) { print "  REGRESSION: translation tier under 1.5x the interpreter"; exit 1 }
}'

echo "== experiments output identical with translation off"
tmpmd=$(mktemp) tmpwant=$(mktemp) tmpgot=$(mktemp)
go run ./cmd/experiments -md > "$tmpmd"
grep -q '^## T1' "$tmpmd" || { echo "generated output missing '## T1' marker" >&2; exit 1; }
sed -n '/^## T1/,$p' EXPERIMENTS.md > "$tmpwant"
sed -n '/^## T1/,$p' "$tmpmd" > "$tmpgot"
if ! diff "$tmpwant" "$tmpgot"; then
    echo "EXPERIMENTS.md body diverges from tier-off output; regenerate it" >&2
    rm -f "$tmpmd" "$tmpwant" "$tmpgot"
    exit 1
fi
rm -f "$tmpmd" "$tmpwant" "$tmpgot"

echo "== clone smoke (256 clones: shared pages, completion, parity with boots)"
go test -run 'TestCloneSmokeParity$' -count=1 ./internal/core/ > /dev/null

echo "== clone fleet bring-up (wall-clock, informational)"
go run ./cmd/experiments -clone -vms 256

echo "== fleet-API soak smoke (200+ lifecycles over HTTP, leak gate)"
./ci.sh soak-smoke

echo "== fault-injection campaign (fixed seeds)"
go run ./cmd/experiments -faults -seeds 8 -seedbase 1 > /dev/null

echo "== recovery campaign (fixed seeds)"
go run ./cmd/experiments -recover -seeds 8 -seedbase 1 > /dev/null

echo "CI OK"
