.PHONY: check test bench lint fuzz perf history-check loc chaos-replay

# Tier-1 gate: build + vet + lint + full suite under -race (includes the
# engine goroutine-leak and cancellation tests), fuzz smoke, the E19 race
# smoke and three short benchmark/ output-check smokes (engine_uniform,
# bank_mla, serve_durable).
check:
	./scripts/check.sh

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

# The history-oracle slice of check.sh: record a live engine run (and three
# seeds with two injected crashes) as an event history, check it offline with the
# black-box checker and then with both deciders; then the CLI tests that
# reject the known-violating histories, run the E20 checker-vs-scheduler
# cross-check and reject an unknown experiment ID.
history-check:
	go run ./cmd/mlasim -engine -history /tmp/mla_check_history.json > /dev/null
	go run ./cmd/mlacheck -history /tmp/mla_check_history.json
	go run ./cmd/mlacheck -witness -history /tmp/mla_check_history.json > /dev/null
	@for seed in 1 2 3; do \
		go run ./cmd/mlasim -engine -crashes 2 -seed $$seed -history /tmp/mla_crash_history.json > /dev/null && \
		go run ./cmd/mlacheck -history /tmp/mla_crash_history.json || exit 1; \
	done
	go run ./cmd/mlacheck -witness -history /tmp/mla_crash_history.json > /dev/null
	go test ./cmd/mlacheck/ ./cmd/mlabench/

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

# Chaos replay oracle: the E13/E18 tables and the mlasim chaos scenarios
# for both message-driven controls, plus the other deterministic simulator
# tables (E5–E7, E10–E12, E14–E16, E20), one file per command, diffed
# against the committed scripts/testdata/chaos_replay/. The controls are
# deterministic in (seed, fault plan), the Detector's victim in
# coherent.Online's worklist order, and every abort/cascade/commit-group
# column in the recovery ledger's closure, so this is the regression check
# for any change to internal/net, internal/cluster, internal/dist,
# internal/shard, internal/coherent, internal/storage or internal/sim.
chaos-replay:
	./scripts/chaos_replay.sh
