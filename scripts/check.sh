#!/usr/bin/env sh
# Tier-1 gate: build, vet, lint, and the full test suite under the race
# detector (which exercises the engine's leak-free shutdown guarantees),
# then a short coverage-guided fuzz smoke over WAL recovery (every log
# prefix must be a consistent recovery input; recovery must be idempotent).
set -eu
cd "$(dirname "$0")/.."
go build ./...
go vet ./...
# Pinned staticcheck + govulncheck; MLA_SKIP_LINT=1 skips, offline machines
# warn-and-skip unless MLA_REQUIRE_LINT=1 (CI sets it).
./scripts/lint.sh
# Includes the crash-recovery tests ('Crash' in internal/engine and
# internal/wal), whose injected crash lands on a worker or on the
# group-commit flusher goroutine; the nightly repeats them fifty times.
go test -race ./...
# The per-commit and per-step microbenchmarks (a Release that visits only
# the stripes a transaction took; a ledger commit and a ledger rollback flat
# in the in-flight count; the WAL DB's share of a commit and of a rollback; a
# closure insert linear in the transaction's length, the preview on a
# 1024-step closure, and the history checker on ≈470- and ≈3,800-step serial
# banking histories), run once each so they keep compiling and running.
go test ./internal/lock/ -run '^$' -bench BenchmarkStripedAcquireRelease -benchtime 1x > /dev/null
go test ./internal/storage/ -run '^$' -bench 'BenchmarkLedgerCommit|BenchmarkLedgerRollback' -benchtime 1x > /dev/null
go test ./internal/wal/ -run '^$' -bench 'BenchmarkDBPerformCommit|BenchmarkDBAbortSuffix' -benchtime 1x -benchmem > /dev/null
go test ./internal/coherent/ -run '^$' -bench 'BenchmarkOnlineLongTxn|BenchmarkOnlinePreviewAt1024' -benchtime 1x > /dev/null
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
# History oracle, end to end: a live engine run recorded as an event
# history must check clean offline — under the black-box checker alone and
# under both deciders (-witness adds the Theorem 2 analysis and fails on a
# disagreement). The known-violating histories' rejection (exit 2) is
# cmd/mlacheck's TestHistoryViolationsExitTwo, and E20's cross-check of both
# checkers on every control, with the rejection of an -exp that names no
# experiment, is cmd/mlabench's tests; go test above runs them all.
go run ./cmd/mlasim -engine -history /tmp/mla_check_history.json > /dev/null
go run ./cmd/mlacheck -history /tmp/mla_check_history.json
go run ./cmd/mlacheck -witness -history /tmp/mla_check_history.json > /dev/null
# The same over runs with two injected crashes, at three seeds: a crash
# records nothing, so the replay alone must discard the attempts each crash
# killed, and mlasim exits 1 unless the history commits exactly what the run
# made durable (a commit whose ack the crash swallowed included).
for seed in 1 2 3; do
    go run ./cmd/mlasim -engine -crashes 2 -seed "$seed" -history /tmp/mla_crash_history.json > /dev/null
    go run ./cmd/mlacheck -history /tmp/mla_crash_history.json
done
go run ./cmd/mlacheck -witness -history /tmp/mla_crash_history.json > /dev/null
# Replay oracle: the deterministic simulator tables and chaos scenarios must
# be byte-identical to the committed golden (scripts/testdata/chaos_replay/).
./scripts/chaos_replay.sh
# Service front-end smoke: mlaserve serves a real listener, its own load
# client offers an open-loop Poisson load with injected disconnects, a real
# SIGTERM lands mid-run, and the drain is audited — every 200-acked
# transaction durable and committed in the history spool (the same capture
# path production runs), which must then pass the black-box checker
# standalone.
rm -f /tmp/mla_serve_history.spool
go run ./cmd/mlaserve -selftest -sessions 20 -txns 400 -rate 40 \
    -disconnect-pct 5 -drain-after 250ms -spool /tmp/mla_serve_history.spool > /dev/null
go run ./cmd/mlacheck -history /tmp/mla_serve_history.spool
# Crash-restart durability smoke: a real mlaserve process over an on-disk
# WAL, SIGKILLed mid-load twice with injected disk faults; every 200-acked
# transaction must be re-verifiable after each restart and the multi-boot
# history spool must pass the black-box checker (the nightly runs the full
# five-round soak).
rm -rf /tmp/mla_soak_smoke
go run ./cmd/mlaserve -soak -soak-rounds 2 -soak-txns 200 -soak-dir /tmp/mla_soak_smoke \
    -checkpoint-every 64 -disk-write-err 0.02 -disk-short-write 0.02 -disk-sync-err 0.01 > /dev/null
go run ./cmd/mlacheck -history /tmp/mla_soak_smoke/history.spool
# Perf-path smoke under the race detector: E19 runs the striped-lock engine
# and the group-commit pipeline at full concurrency, failing if an optimized
# path leaves commit outcomes changed, with telemetry recording on so the
# observer path is race-checked too. The trace lands in /tmp, not the repo;
# CI uploads it as an artifact.
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
