.PHONY: check test bench lint fuzz perf history-check loc chaos-replay

# Tier-1 gate: build + vet + lint + full suite under -race (includes the
# engine goroutine-leak and cancellation tests), fuzz smoke, perf smoke.
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

# The history-oracle slice of check.sh: record a live engine run as an
# event history, check it offline with the black-box checker, verify the
# known-violating histories are rejected, and run the E20
# checker-vs-scheduler cross-check.
history-check:
	go run ./cmd/mlasim -engine -history /tmp/mla_check_history.json > /dev/null
	go run ./cmd/mlacheck -history /tmp/mla_check_history.json
	@for v in internal/history/testdata/violation_*.json; do \
		if go run ./cmd/mlacheck -history "$$v" > /dev/null 2>&1; then \
			echo "$$v should have been rejected" >&2; exit 1; \
		fi; \
	done
	go run ./cmd/mlabench -exp E20

# The same perf smoke check.sh runs: quick E19 sweep under -race with
# telemetry on; trace and report land in /tmp.
perf:
	go run -race ./cmd/mlabench -perf -quick -out /tmp/mla_perf_smoke.json \
		-telemetry -trace-out /tmp/mla_perf_smoke_trace.json

# Non-test Go source lines per internal/* package and in total (benchmark/
# excluded): ROADMAP aim 2 wants the total to go down.
loc:
	./scripts/loc.sh

# Chaos replay oracle: the E13/E18 tables and the mlasim chaos scenarios
# for both message-driven controls, one file per command. The controls are
# deterministic in (seed, fault plan), so `diff -r` of this directory from
# two commits is the regression check for any change to internal/net,
# internal/cluster, internal/dist or internal/shard.
chaos-replay:
	./scripts/chaos_replay.sh /tmp/mla_chaos_replay
