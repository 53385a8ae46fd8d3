#!/usr/bin/env bash
# Runs every native fuzz target in the tree for <fuzztime> each: push CI
# passes 10s so no target rots between nightlies, the nightly passes 5m.
# A new target costs one row of the table (and the line saying what it
# holds); a `func Fuzz*` in the tree that the table misses fails the run.
set -euo pipefail
cd "$(dirname "$0")/.."
fuzztime=${1:?usage: fuzz_smoke.sh <fuzztime, e.g. 10s or 5m>}

# package  target  [extra go test flags]
targets='
# A checkpoint at any schedule point, then restart, ends in the uninterrupted run state.
./internal/rt        FuzzCheckpointRestartTransparent
# Chunk tables tile exactly, identities recompute, an edit re-synchronizes the boundary walk at the first eligible candidate past it; predicting from the pre-edit table changes nothing, a forged table still tiles and leaves the stream sum alone.
./internal/ckpt      FuzzChunkerStability
# Arbitrary bytes as a VASP proxy snapshot: a vasp: refusal that leaves the rank as it was, or a state that snapshots back to exactly those bytes; no allocation beyond the length of the input.
./internal/apps      FuzzVASPRestore
# Arbitrary bytes as a straggler snapshot, under insertion churn and in place: a straggler: refusal that leaves the rank as it was, or a state that snapshots back to exactly those bytes; no allocation beyond the input plus the configured insertion room.
./internal/apps      FuzzStragglerRestore
# Arbitrary bytes as a CC sequence table: a cc: refusal that leaves the table as it was, or a table that snapshots back to exactly those bytes; allocation bounded by the input times the overhead of a Go map.
./internal/core      FuzzCCRestore
# Damaged page-delta / CDC objects x perturbed manifest entries: an attributed error or a clean decode, no panic, no allocation beyond the stated sizes (gob sees only CRC-checked extents).
./internal/ckpt      FuzzPartialShardDecode
# Arbitrary bytes as a shard header (behind the capped reader) and as a manifest record body: the primed codec, its cache warm, and a fresh gob.Decoder give the same verdict, the same value and stop at the same byte; valid records still decode after. (Minimizing a multi-KB manifest would eat a 10s run.)
./internal/ckpt      FuzzGobPrimedAgree  -fuzzminimizetime=1s
# Arbitrary bytes as a packed image file: open -> verify -> load errors or decodes, verify and load agree, no panic, bounded allocation.
./internal/ckpt      FuzzOpenImage
# Arbitrary bytes as a DEFLATE stream: the in-tree decoder and compress/flate both fail or agree, at fixed state. (Minimizing a multi-KB input would eat a 10s run.)
./internal/inflate   FuzzInflateAgree  -fuzzminimizetime=1s
# Arbitrary bytes in arbitrary Write pieces: the in-tree encoder writes compress/flate BestSpeed bytes, the in-tree inflate reads them back, nothing allocated beyond the writer.
./internal/deflate   FuzzDeflateAgree  -fuzzminimizetime=1s
# Up to 286 symbol frequencies: the radix sort orders them as a full-key sort does, and wherever the linear-time Huffman merge answers under a limit, its length counts are the package-merge counts of compress/flate.
./internal/deflate   FuzzHuffmanCounts
'
rows=$(grep -v '^#' <<<"$targets" | grep .)

missing=$(comm -23 \
  <(grep -rhoE --include='*_test.go' --exclude-dir=bench '^func Fuzz[A-Za-z0-9_]+' . | sed 's/^func //' | sort) \
  <(awk '{print $2}' <<<"$rows" | sort))
[ -z "$missing" ] || { echo "fuzz_smoke: not in the table: $missing" >&2; exit 1; }

# -timeout is a backstop above the nightly's 5m; go test fuzzes one target of
# one package per run.
while read -r pkg target extra; do
  echo "== $target ($pkg, $fuzztime)"
  # shellcheck disable=SC2086
  go test -run=NONE -fuzz="^$target\$" -fuzztime="$fuzztime" -timeout 20m $extra "$pkg"
done <<<"$rows"
