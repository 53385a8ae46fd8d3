#!/usr/bin/env bash
# Non-test Go lines (wc -l of every *.go that is not *_test.go) per package
# directory and for the tree outside bench/ — the figures CHANGES.md entries
# and ROADMAP.md's north star quote. It prints; it does not gate.
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 |
  xargs -0 wc -l |
  awk '$2 != "total" {
         dir = $2; sub(/^\.\//, "", dir)
         if (!sub(/\/[^\/]*$/, "", dir)) dir = "."
         lines[dir] += $1; total += $1
       }
       END {
         for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"
         close("sort -k2")
         printf "%7d  non-test Go outside bench/\n", total
       }'
