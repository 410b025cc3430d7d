#!/bin/sh
# ci.sh — the repository's check pipeline: formatting, vet, build, the
# traulint static-analysis suite, and the test suite under the race
# detector. Run from the module root; any failure aborts.
set -eu

cd "$(dirname "$0")"

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet"
go vet ./...

echo "==> go build"
go build ./...

echo "==> traulint"
# Gate on the machine-readable report: the run must exit 0 AND render a
# literal empty findings array, so a formatting regression in the JSON
# encoder cannot silently stop the gate from seeing findings.
go run ./cmd/traulint -json ./... >/tmp/traulint.json
if ! grep -q '"findings": \[\]' /tmp/traulint.json; then
    echo "traulint findings:" >&2
    cat /tmp/traulint.json >&2
    exit 1
fi

echo "==> cancellation and equivalence tests (-race)"
# The cooperative-cancellation paths are the raciest code in the tree:
# every layer must abort promptly when its engine.Ctx is cancelled from
# another goroutine (a client disconnect, an expired deadline). In
# internal/cluster that includes the ring walk /solve and /batch share,
# which must not blame a shard for a client that cancelled mid-forward.
# benchtab's -j byte-identity test and the incremental-vs-fresh
# equivalence suite ride along: instance-level workers share the
# process-wide sync skeleton cache, and per-branch solver sessions persist
# across refinement rounds.
# The simplex equivalence tests ride along too: the pinned pivot
# trajectory and the compact-vs-wide scratch comparison check that the
# violated-row worklist and the compact core-shrinking tableau search
# exactly as the full scans they replaced did.
# Run them first and explicitly so a hang here is attributed correctly.
go test -race -run 'Cancel|Deadline|Timeout|Parallel|Incremental|FailsOver|PivotTrajectory|SubsetCheckMatches' \
    ./internal/sat ./internal/simplex ./internal/lia \
    ./internal/core ./internal/baseline ./internal/bench \
    ./internal/cluster

echo "==> router stats determinism (-race -count=50)"
# The router's /stats must never see a shard it has not probed yet:
# cluster.New finishes one probe round before it returns. Fifty runs
# under the race detector keep that guarantee from regressing into a
# flake.
go test -race -count=50 -run TestRouterStatsAggregation ./internal/cluster

echo "==> server race suites (-race -count=2)"
# The serving layer's concurrency suites — admission, the two-class QoS
# scheduler, dedup-in-flight, batch jobs, drain, and the dispatch
# ladder both request classes share (a follower's own deadline, a
# follower whose client cancels, a queued leader past its deadline, a
# batch instance following a /solve) — run TWICE in one
# process. The second run must pass against whatever package-level
# state the first left behind, so order-dependence and leaked global
# state fail here instead of flaking later.
go test -race -count=2 \
    -run 'Cancel|Deadline|Timeout|Concurrent|QoS|Batch|Scheduler|JobStore|TenantBudget|TenantRefill|RetryAfter|PeerCacheFill|Shutdown' \
    ./internal/server

echo "==> chaos: fault-injection sweep (-race)"
# Deterministic fault injection over the containment boundaries: panics,
# cancellations, and budget trips at the first, middle, and last
# injectable site of each probe instance. Gating — the sweep asserts the
# two containment invariants (verdicts never flip SAT<->UNSAT, no
# goroutine leaks) plus the over-budget UNKNOWN acceptance case.
go test -race -run 'Chaos|OverBudget|ContainedWorkerPanic|FaultSeed' \
    ./internal/bench ./internal/server ./internal/cluster ./cmd/trauserve

echo "==> go test -race"
go test -race ./...

echo "==> trauserve smoke"
# End-to-end over a real socket: boot the service, solve once cold,
# once from the cache, probe /stats, then require a graceful SIGTERM
# drain with exit code 0. Gating — a server that cannot serve or drain
# is broken no matter what the unit tests say.
go build -o /tmp/trauserve ./cmd/trauserve
/tmp/trauserve -addr 127.0.0.1:0 >/tmp/trauserve.log 2>&1 &
trauserve_pid=$!
url=""
for _ in $(seq 1 100); do
    url=$(sed -n 's/^trauserve: listening on //p' /tmp/trauserve.log)
    [ -n "$url" ] && break
    sleep 0.1
done
if [ -z "$url" ]; then
    echo "trauserve did not announce its address" >&2
    cat /tmp/trauserve.log >&2
    kill "$trauserve_pid" 2>/dev/null || true
    exit 1
fi
payload='{"smtlib": "(declare-fun x () String)(declare-fun n () Int)(assert (= n (str.to_int x)))(assert (= n 42))(assert (= (str.len x) 4))(check-sat)"}'
curl -sf -X POST -d "$payload" "$url/solve" | grep -q '"status": "sat"'
curl -sf -X POST -d "$payload" "$url/solve" | grep -q '"cached": true'
curl -sf "$url/stats" | grep -q '"cache"'
kill -TERM "$trauserve_pid"
wait "$trauserve_pid"
grep -q 'trauserve: drained' /tmp/trauserve.log

echo "==> trauserve fault smoke"
# Containment end-to-end: boot with -faultseed 3072 (panic at the first
# worker-boundary visit), require the first request to fail with a
# structured 500 carrying a fault id, the NEXT request to succeed on the
# surviving worker, /stats to expose the contained fault, and the
# process to still drain cleanly.
/tmp/trauserve -addr 127.0.0.1:0 -workers 1 -faultseed 3072 >/tmp/trauserve_fault.log 2>&1 &
trauserve_pid=$!
url=""
for _ in $(seq 1 100); do
    url=$(sed -n 's/^trauserve: listening on //p' /tmp/trauserve_fault.log)
    [ -n "$url" ] && break
    sleep 0.1
done
if [ -z "$url" ]; then
    echo "trauserve (fault smoke) did not announce its address" >&2
    cat /tmp/trauserve_fault.log >&2
    kill "$trauserve_pid" 2>/dev/null || true
    exit 1
fi
first=$(curl -s -o /tmp/trauserve_fault_body.json -w '%{http_code}' -X POST -d "$payload" "$url/solve")
if [ "$first" != "500" ]; then
    echo "fault smoke: first request status $first, want 500" >&2
    cat /tmp/trauserve_fault_body.json >&2
    kill "$trauserve_pid" 2>/dev/null || true
    exit 1
fi
grep -q '"fault_id"' /tmp/trauserve_fault_body.json
curl -sf -X POST -d "$payload" "$url/solve" | grep -q '"status": "sat"'
curl -sf "$url/stats" | grep -q '"contained": 1'
kill -TERM "$trauserve_pid"
wait "$trauserve_pid"
grep -q 'trauserve: drained' /tmp/trauserve_fault.log

echo "==> trauserve batch smoke"
# Multi-tenant QoS end-to-end: submit a 20-instance batch of one slow
# problem from a bulk tenant, interleave interactive solves from
# another tenant while the batch runs, and require (a) every
# interactive solve answers inside a latency bound despite the flood,
# (b) the duplicates coalesce onto one underlying solve (nonzero
# coalesce hits in /stats), (c) the job polls to completion with every
# instance settled, and (d) the process still drains cleanly.
go run ./cmd/benchgen -out /tmp/ci_suites -per 1 -luhn 8 >/dev/null
slow=$(grep -v '^;' /tmp/ci_suites/table3/checkLuhn/luhn-08.smt2 | tr '\n' ' ' | sed 's/"/\\"/g')
inst="{\"smtlib\": \"$slow\"}"
insts="$inst"
for _ in $(seq 2 20); do insts="$insts, $inst"; done
batch_payload="{\"instances\": [$insts], \"timeout_ms\": 25000}"
/tmp/trauserve -addr 127.0.0.1:0 -workers 2 >/tmp/trauserve_batch.log 2>&1 &
trauserve_pid=$!
url=""
for _ in $(seq 1 100); do
    url=$(sed -n 's/^trauserve: listening on //p' /tmp/trauserve_batch.log)
    [ -n "$url" ] && break
    sleep 0.1
done
if [ -z "$url" ]; then
    echo "trauserve (batch smoke) did not announce its address" >&2
    cat /tmp/trauserve_batch.log >&2
    kill "$trauserve_pid" 2>/dev/null || true
    exit 1
fi
curl -sf -X POST -H 'X-Tenant: bulk' -d "$batch_payload" "$url/batch" >/tmp/trauserve_batch_202.json
job_id=$(sed -n 's/.*"job_id": "\([^"]*\)".*/\1/p' /tmp/trauserve_batch_202.json)
if [ -z "$job_id" ]; then
    echo "batch smoke: no job id in the 202" >&2
    cat /tmp/trauserve_batch_202.json >&2
    kill "$trauserve_pid" 2>/dev/null || true
    exit 1
fi
# Interactive solves from another tenant while the batch is in flight:
# each must finish fast — the flood occupies at most one worker (the 19
# duplicates coalesce), and interactive work outranks batch anyway.
for _ in 1 2 3; do
    t=$(curl -sf -o /dev/null -w '%{time_total}' -X POST -H 'X-Tenant: alice' \
        -d "$payload" "$url/solve")
    if ! awk "BEGIN{exit !($t < 2.0)}"; then
        echo "batch smoke: interactive solve took ${t}s under the batch flood" >&2
        kill "$trauserve_pid" 2>/dev/null || true
        exit 1
    fi
done
# Poll the job to completion.
pending=1
for _ in $(seq 1 120); do
    curl -sf "$url/jobs/$job_id" >/tmp/trauserve_batch_job.json
    if grep -q '"pending": 0' /tmp/trauserve_batch_job.json; then
        pending=0
        break
    fi
    sleep 0.5
done
if [ "$pending" != "0" ]; then
    echo "batch smoke: job never settled" >&2
    cat /tmp/trauserve_batch_job.json >&2
    kill "$trauserve_pid" 2>/dev/null || true
    exit 1
fi
grep -q '"state": "done"' /tmp/trauserve_batch_job.json
if grep -q '"status": "pending"' /tmp/trauserve_batch_job.json; then
    echo "batch smoke: settled job still reports pending instances" >&2
    exit 1
fi
# The 19 duplicates must have coalesced onto the leader's solve.
coalesced=$(curl -sf "$url/stats" | sed -n '/"dedup"/,/}/s/.*"coalesced": \([0-9]*\).*/\1/p')
if [ -z "$coalesced" ] || [ "$coalesced" -eq 0 ]; then
    echo "batch smoke: no coalesce hits in /stats (got '${coalesced:-none}')" >&2
    curl -sf "$url/stats" >&2 || true
    kill "$trauserve_pid" 2>/dev/null || true
    exit 1
fi
kill -TERM "$trauserve_pid"
wait "$trauserve_pid"
grep -q 'trauserve: drained' /tmp/trauserve_batch.log

echo "==> trauserve router smoke"
# The cluster layer end-to-end, as separate OS processes: three shards
# plus a consistent-hash router, a mixed flood through the router with
# one shard SIGKILLed mid-flood. Gating invariants: every request
# settles with a verdict (the kill becomes latency, never an error),
# the dead shard's circuit breaker opens, failover engages, and the
# router plus surviving shards still drain cleanly on SIGTERM.
base=$((21000 + $$ % 9000))
s1="127.0.0.1:$base"; s2="127.0.0.1:$((base + 1))"; s3="127.0.0.1:$((base + 2))"
router_addr="127.0.0.1:$((base + 3))"
shard_list="$s1,$s2,$s3"
shard_pids=""
for s in "$s1" "$s2" "$s3"; do
    /tmp/trauserve -addr "$s" -self "$s" -shards "$shard_list" -workers 2 \
        >"/tmp/trauserve_shard_${s##*:}.log" 2>&1 &
    shard_pids="$shard_pids $!"
done
/tmp/trauserve -addr "$router_addr" -router -shards "$shard_list" -probe 100ms \
    >/tmp/trauserve_router.log 2>&1 &
router_pid=$!
for log in "/tmp/trauserve_shard_${s1##*:}.log" "/tmp/trauserve_shard_${s2##*:}.log" \
    "/tmp/trauserve_shard_${s3##*:}.log" /tmp/trauserve_router.log; do
    up=""
    for _ in $(seq 1 100); do
        up=$(sed -n 's/^trauserve: listening on //p' "$log")
        [ -n "$up" ] && break
        sleep 0.1
    done
    if [ -z "$up" ]; then
        echo "router smoke: process behind $log did not come up" >&2
        cat "$log" >&2
        kill $shard_pids "$router_pid" 2>/dev/null || true
        exit 1
    fi
done
grep -q 'trauserve: routing across 3 shards' /tmp/trauserve_router.log
router_url="http://$router_addr"
shard_kill_pid=$(pgrep -f "trauserve -addr $s1 " | head -1)
if [ -z "$shard_kill_pid" ]; then
    echo "router smoke: could not find the pid of shard $s1" >&2
    kill $shard_pids "$router_pid" 2>/dev/null || true
    exit 1
fi
# Mixed flood through the router: 12 distinct problems (distinct hashes
# spread across the ring), shard s1 SIGKILLed after the 4th. Every
# single request must come back 200 with a settled verdict.
i=0
while [ "$i" -lt 12 ]; do
    if [ "$i" = 4 ]; then
        kill -KILL "$shard_kill_pid"
    fi
    n=$((40 + i))
    p="{\"smtlib\": \"(declare-fun x () String)(declare-fun n () Int)(assert (= n (str.to_int x)))(assert (= n $n))(assert (= (str.len x) 4))(check-sat)\"}"
    code=$(curl -s -o /tmp/trauserve_router_body.json -w '%{http_code}' -X POST -d "$p" "$router_url/solve")
    if [ "$code" != "200" ] || ! grep -q '"status": "sat"' /tmp/trauserve_router_body.json; then
        echo "router smoke: request $i answered $code mid-kill" >&2
        cat /tmp/trauserve_router_body.json >&2
        kill $shard_pids "$router_pid" 2>/dev/null || true
        exit 1
    fi
    i=$((i + 1))
done
# The health probes must have opened the dead shard's breaker.
sleep 1
curl -sf "$router_url/stats" >/tmp/trauserve_router_stats.json
grep -q '"breaker": "open"' /tmp/trauserve_router_stats.json
# Drive failover explicitly: which shard owns a given problem is up to
# the hash, so keep sending fresh problems until one lands on the dead
# owner and is routed past it. Each problem has a 1-in-3 chance, so 60
# tries bounds the loop without ever realistically failing.
failovers=0
i=100
while [ "$i" -lt 160 ]; do
    p="{\"smtlib\": \"(declare-fun x () String)(declare-fun n () Int)(assert (= n (str.to_int x)))(assert (= n $i))(assert (= (str.len x) 4))(check-sat)\"}"
    code=$(curl -s -o /tmp/trauserve_router_body.json -w '%{http_code}' -X POST -d "$p" "$router_url/solve")
    if [ "$code" != "200" ] || ! grep -q '"status": "sat"' /tmp/trauserve_router_body.json; then
        echo "router smoke: request n=$i answered $code against the degraded cluster" >&2
        cat /tmp/trauserve_router_body.json >&2
        kill $shard_pids "$router_pid" 2>/dev/null || true
        exit 1
    fi
    curl -sf "$router_url/stats" >/tmp/trauserve_router_stats.json
    failovers=$(sed -n 's/.*"failovers": \([0-9]*\).*/\1/p' /tmp/trauserve_router_stats.json)
    [ -n "$failovers" ] && [ "$failovers" -gt 0 ] && break
    i=$((i + 1))
done
if [ -z "$failovers" ] || [ "$failovers" -eq 0 ]; then
    echo "router smoke: no failovers recorded though a shard was killed" >&2
    cat /tmp/trauserve_router_stats.json >&2
    kill $shard_pids "$router_pid" 2>/dev/null || true
    exit 1
fi
# Clean drain: the router and both surviving shards exit 0 on SIGTERM.
kill -TERM "$router_pid"
wait "$router_pid"
grep -q 'trauserve: drained' /tmp/trauserve_router.log
for p in $shard_pids; do
    kill -TERM "$p" 2>/dev/null || true
done
for p in $shard_pids; do
    wait "$p" 2>/dev/null || true
done
grep -q 'trauserve: drained' "/tmp/trauserve_shard_${s2##*:}.log"
grep -q 'trauserve: drained' "/tmp/trauserve_shard_${s3##*:}.log"

echo "==> perf smoke (non-gating)"
# Re-run the Table 3 workload under the baseline's configuration and
# print benchtab's per-suite drift report against the checked-in
# BENCH_BASELINE.json. Informational only: machine load makes
# wall-clock noisy, so a nonzero exit (regression or verdict-count
# change flagged by -compare) never fails the pipeline — it exists so
# perf regressions are visible in the CI log the day they land.
if go run ./cmd/benchtab -table 3 -loops 8 -timeout 5s \
    -compare BENCH_BASELINE.json -tolerance 40 >/tmp/bench_compare.txt 2>&1; then
    sed 's/^/    /' /tmp/bench_compare.txt
else
    sed 's/^/    /' /tmp/bench_compare.txt
    echo "    perf smoke flagged drift (non-gating)"
fi

echo "ci: all checks passed"
