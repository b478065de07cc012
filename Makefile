.PHONY: check test bench lint fuzz perf loc

# Full gate: build + vet + lint + full suite under -race (goldens, chaos
# scenarios, the dead-surface audit, engine goroutine-leak and cancellation
# tests included), every examples/ program, the microbenchmark and fuzz
# smokes, the soak, the E19 race smoke and three benchmark/ output-check
# smokes (engine_uniform, bank_mla, serve_durable).
check:
	./scripts/check.sh

# Tier-1, golden tables, chaos scenarios and the dead-surface audit included;
# a change that means to move a golden runs
# `go test ./internal/bench ./cmd/mlasim -update`, and one that means to move
# the audit's pin runs `go test . -run TestSurface -update`.
test:
	go test ./...

bench:
	go test -bench=. -benchmem ./...

# Pinned staticcheck + govulncheck (MLA_SKIP_LINT=1 skips; offline machines
# warn and skip unless MLA_REQUIRE_LINT=1).
lint:
	./scripts/lint.sh

# The same three fuzz smokes check.sh runs: WAL recovery over the in-memory
# medium, over the real file medium, and checker-vs-scheduler agreement.
fuzz:
	go test ./internal/wal/ -run FuzzWALRecovery -fuzz FuzzWALRecovery -fuzztime 10s
	go test ./internal/wal/ -run FuzzFileWALRecovery -fuzz FuzzFileWALRecovery -fuzztime 10s
	go test ./internal/history/ -run FuzzHistoryCheck -fuzz FuzzHistoryCheck -fuzztime 10s

# The same smokes check.sh runs: E19 at scale 1 under -race with telemetry
# on (the trace lands in /tmp), then one second of the benchmark's engine
# workload, 12 epochs of bank_mla (the closure path) and one second of
# serve_durable (acked ⇒ durable after reopen) with their output checks.
# None is a perf gate; performance is judged by alternating
# benchmark/ pairs (benchmark/README.md).
perf:
	go run -race ./cmd/mlabench -exp E19 -scale 1 -telemetry -trace-out /tmp/mla_perf_smoke_trace.json
	bash benchmark/run.sh --workload engine_uniform --seed 1 --seconds 1 --trace 0 > /dev/null
	bash benchmark/run.sh --workload bank_mla --seed 1 --seconds 3 --trace 0 > /dev/null
	bash benchmark/run.sh --workload serve_durable --seed 1 --seconds 1 --trace 0 > /dev/null

# Non-test Go source lines per internal/* package and in total (benchmark/
# excluded): ROADMAP aim 2 wants the total to go down.
loc:
	./scripts/loc.sh
