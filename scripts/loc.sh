#!/usr/bin/env sh
# Source line count: non-test .go lines per cmd/* command and internal/*
# package (nested packages counted with their parent) and for the whole
# repository, with benchmark/ and dot-directories left out. ROADMAP aim 2 wants this number
# to go down; CI prints it on every push.
set -eu
cd "$(dirname "$0")/.."

count() {
    find "$@" \( -path ./benchmark -o -path './.?*' \) -prune -o \
        -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l
}

for d in cmd/*/ internal/*/; do
    printf '%-24s %6d\n' "${d%/}" "$(count "$d")"
done
printf '%-24s %6d\n' total "$(count .)"
