#!/usr/bin/env sh
# Full gate: tier-1's suite under the race detector (which exercises the
# engine's leak-free shutdown guarantees, and includes the dead-surface
# audit), plus vet, lint, every examples/ program, the microbenchmark and
# fuzz smokes, the soak (child processes), the E19 race smoke and the
# benchmark/run.sh output-check smokes.
set -eu
cd "$(dirname "$0")/.."
go build ./...
go vet ./...
# Pinned staticcheck + govulncheck; MLA_SKIP_LINT=1 skips, offline machines
# warn-and-skip unless MLA_REQUIRE_LINT=1 (CI sets it).
./scripts/lint.sh
# Includes the golden tables, chaos scenarios and history audits, and the
# crash-recovery tests ('Crash' in internal/engine and internal/wal), whose
# injected crash lands on a worker or on the group-commit flusher goroutine;
# the nightly repeats them, the pipelined-commit tests, the
# close-with-ack-in-flight test and the batch-run tests fifty times.
go test -race ./...
# The examples are runnable and self-verifying: each exits nonzero when its
# own check fails, and the dead-surface audit (surface_test.go, in the suite
# above) counts them as callers, so every one of them runs here.
for ex in examples/*/; do
    go run "./$ex" > /dev/null
done
# The per-commit and per-step microbenchmarks (a Release that frees only
# the entities a transaction's record lists; a ledger commit and a ledger
# rollback flat in the in-flight count; the WAL DB's share of a commit and of
# a rollback; a resident engine session's Submit of a 2-step increment, from
# one goroutine and from GOMAXPROCS; a closure insert linear in the
# transaction's length, the preview on a 1024-step closure, a Detector abort
# whose victim is retracted in place, and the history checker on ≈470- and
# ≈3,800-step serial banking histories), run once each so they keep
# compiling and running.
go test ./internal/lock/ -run '^$' -bench BenchmarkStripedAcquireRelease -benchtime 1x > /dev/null
go test ./internal/storage/ -run '^$' -bench 'BenchmarkLedgerCommit|BenchmarkLedgerRollback' -benchtime 1x > /dev/null
go test ./internal/wal/ -run '^$' -bench 'BenchmarkDBPerformCommit|BenchmarkDBAbortSuffix' -benchtime 1x -benchmem > /dev/null
go test ./internal/engine/ -run '^$' -bench BenchmarkSessionSubmit -benchtime 1x -benchmem > /dev/null
go test ./internal/coherent/ -run '^$' -bench 'BenchmarkOnlineLongTxn|BenchmarkOnlinePreviewAt1024' -benchtime 1x > /dev/null
go test ./internal/sched/ -run '^$' -bench BenchmarkDetectorCascade -benchtime 1x > /dev/null
go test ./internal/history/ -run '^$' -bench BenchmarkCheck -benchtime 1x -benchmem > /dev/null
go test ./internal/wal/ -run FuzzWALRecovery -fuzz FuzzWALRecovery -fuzztime 10s
# Same recovery law over the real medium: a file-backed log whose tail is
# truncated or bit-flipped at an arbitrary point must mount to a consistent
# prefix, idempotently, with the in-memory medium as the oracle.
go test ./internal/wal/ -run FuzzFileWALRecovery -fuzz FuzzFileWALRecovery -fuzztime 10s
# Checker-vs-scheduler fuzz smoke: the black-box history checker must agree
# with the Theorem 2 analysis on random interleavings of the banking
# workload.
go test ./internal/history/ -run FuzzHistoryCheck -fuzz FuzzHistoryCheck -fuzztime 10s
# POST /v1/txns decoder smoke: the hand-written fast path must decode every
# body it accepts to what encoding/json decodes, and every other body must
# get json.Unmarshal's values or error.
go test ./internal/serve/ -run FuzzTxnRequestBody -fuzz FuzzTxnRequestBody -fuzztime 10s
# Crash-restart durability smoke: a real mlaserve process over an on-disk
# WAL, SIGKILLed mid-load twice with injected disk faults; every 200-acked
# transaction must be re-verifiable after each restart, the soak reads each
# boot's recovery and checkpoint counts from the child's GET /metrics, and
# the multi-boot history spool must pass the black-box checker (the nightly
# runs the full five-round soak).
rm -rf /tmp/mla_soak_smoke
go run ./cmd/mlaserve -soak -soak-rounds 2 -soak-txns 200 -soak-dir /tmp/mla_soak_smoke \
    -checkpoint-every 64 -disk-write-err 0.02 -disk-short-write 0.02 -disk-sync-err 0.01 > /dev/null
go run ./cmd/mlacheck -history /tmp/mla_soak_smoke/history.spool
# Perf-path smoke under the race detector: E19 runs the striped-lock engine
# and the group-commit pipeline at full concurrency, failing if an optimized
# path leaves commit outcomes changed, with telemetry on so the span recorder
# and each cell's end-of-run fold of its engine counts into the registry are
# race-checked too. The trace lands in /tmp, not the repo; CI uploads it as
# an artifact.
go run -race ./cmd/mlabench -exp E19 -scale 1 -telemetry -trace-out /tmp/mla_perf_smoke_trace.json
# Yardstick smoke: one second of the benchmark's engine workload. It exits
# nonzero unless increment_equivalence and every other output check pass — a
# correctness smoke of the yardstick itself, not a perf gate (performance is
# judged by alternating pairs, per benchmark/README.md).
bash benchmark/run.sh --workload engine_uniform --seed 1 --seconds 1 --trace 0 > /dev/null
# The same for the closure path: 12 epochs of bank_mla (about 0.1 s of load)
# with every audit exact and every epoch history.Check-correctable. --seconds
# 1 would be 4 epochs, too few samples for the benchmark's own
# latency_windows check.
bash benchmark/run.sh --workload bank_mla --seed 1 --seconds 3 --trace 0 > /dev/null
# And for the durable path a real client takes (HTTP → engine → commit group
# → file-WAL fsync, compacting into the checkpoint archive every 512
# records): about 5 s, nonzero unless every acked id is Durable after
# shutdown + reopen.
bash benchmark/run.sh --workload serve_durable --seed 1 --seconds 1 --trace 0 > /dev/null
