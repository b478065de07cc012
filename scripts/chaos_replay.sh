#!/usr/bin/env sh
# Chaos replay oracle: both message-driven controls (dist.Preventer,
# shard.SimControl) are deterministic functions of (seed, fault plan), so
# the printed tables and summaries below must be byte-identical across any
# refactor of the failure-handling machinery. Writes one file per command
# into <outdir>, with the one wall-clock field (the "(0.1s)" in the
# experiment-table header) and the <outdir> prefix stripped, so that
#
#     diff -r parent-out/ change-out/
#
# is the whole check. The shard scenarios also write their mla-history
# spool to <outdir>/<scenario>.json (nightly audits those with mlacheck);
# -check makes each run exit nonzero unless the execution is Theorem-2
# correctable with exact audits.
#
# E5, E11, E12 and E16 ride along for internal/coherent: they are the
# deterministic tables (no wall-clock column) that carry a `detect` row, and
# the Detector's victim is the pair of transactions on which
# coherent.Online's pairwise worklist (process) happens to close the cycle.
# They pin the Detector's victim choice, i.e. process's visiting order.
#
# E6, E7, E10, E14, E15 and E20 ride along for the recovery ledger
# (internal/storage): the other deterministic simulator tables, whose abort,
# cascade, undone-step and commit-group columns are a function of the abort
# closure and the commit-group fixpoint (E14 through the WAL-backed store,
# wal.DB.AbortSuffix).
#
# The .txt files are committed as scripts/testdata/chaos_replay/ and every
# run ends by diffing what it wrote against them, so "byte-identical to the
# parent" is this script's exit status (`make chaos-replay` and
# scripts/check.sh run it with no <outdir>, into a temporary directory). A PR
# that means to change a table copies the new file over the golden one. The
# spools stay uncommitted.
set -eu
[ $# -le 1 ] || { echo "usage: $0 [<outdir>]" >&2; exit 2; }
if [ $# -eq 1 ]; then
    mkdir -p "$1"
    out=$(cd "$1" && pwd)
else
    out=$(mktemp -d)
    trap 'rm -rf "$out"' EXIT
fi
cd "$(dirname "$0")/.."

# run <name> <command...>: the command's stdout, normalised, to <name>.txt.
# Not a pipe, so a failing -check fails the script.
run() {
    name=$1; shift
    "$@" > "$out/$name.raw"
    sed -e 's/  ([0-9.]*m\{0,1\}s)$//' -e "s|$out/||" "$out/$name.raw" > "$out/$name.txt"
    rm "$out/$name.raw"
}
shard() { # <scenario> <flags...>
    name=$1; shift
    run "shard-$name" go run ./cmd/mlasim -control shard -shards 4 -txns 96 "$@" -check \
        -history "$out/$name.json"
}

run E18 go run ./cmd/mlabench -exp E18 -scale 1 -seed 1
run E13 go run ./cmd/mlabench -exp E13 -scale 1 -seed 1
for e in E5 E6 E7 E10 E11 E12 E14 E15 E16 E20; do
    run "$e" go run ./cmd/mlabench -exp "$e" -scale 1 -seed 1
done
run dist-storm go run ./cmd/mlasim -control dist -txns 96 -seed 17 -loss 0.05 -partition 600 -procfail 2 -check
# Scenario grid: clean, lossy bus, long partition, and the full storm
# (loss + partition + two processor crashes).
shard clean -seed 7
shard loss -seed 11 -loss 0.08
shard partition -seed 13 -partition 600
shard storm -seed 17 -loss 0.05 -partition 600 -procfail 2

diff -r -x '*.json' scripts/testdata/chaos_replay "$out"
