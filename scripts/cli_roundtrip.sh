#!/usr/bin/env bash
# Cross-process checkpoint/restart gate: every leg below is a separate
# ccrun or ccimg PROCESS, so what crosses between them is only what was
# written to disk — the use case of the paper (chained allocations), which
# the in-process tests cannot reach. On the 8-rank straggler (2 hot ranks,
# 6 cold ones that finish early) it checks that
#   (a) an uninterrupted run prints a state digest D;
#   (b) ccrun -ckpt-at t -store d, then ccimg verify / info -json / extract
#       on d, then ccrun -restart-store d reaches D — and a regular file is
#       refused by ccrun -restart-store and ccimg as not a store directory,
#       as is -epoch without -restart-store, and a missing path is refused
#       by ccrun -restart-store without being created;
#   (c) a chain of -incremental -store d / -restart-store d legs verifies
#       and restarts into D, and the first leg whose parent epoch holds
#       every cold rank as park=done reuses exactly the cold ranks' shards:
#       shard reuse works across processes of one binary.
# Which leg (c)'s precondition first holds on depends on host scheduling
# (ROADMAP item 2), so legs are added, bounded, until it does. It is read
# from the park census `ccimg info -v` decodes from the store's newest epoch.
# (Pipelines end in `grep >/dev/null`, not `grep -q`: under pipefail an early
# exit of grep fails the writer with SIGPIPE.)
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
go build -o "$work/bin/" ./cmd/ccrun ./cmd/ccimg
ccimg="$work/bin/ccimg"
ccrun() { "$work/bin/ccrun" -app straggler -algo cc -ranks 8 -ppn 4 -scale 2 "$@"; }
cold=6        # ranks - apps.DefaultStragglerConfig().HotRanks
step=0.0003   # virtual seconds between legs; the whole run is ~0.0048
max_legs=10   # a cold rank finishes its 4 steps at no less than one a leg

fail() { echo "cli_roundtrip: FAIL: $*" >&2; exit 1; }
digest_of() { sed -n 's/^state digest: //p'; }

# (a) uninterrupted
want=$(ccrun | digest_of)
[ -n "$want" ] || fail "the uninterrupted run printed no state digest"
echo "uninterrupted:        $want"

# (b) through a one-epoch store directory
one="$work/one"
ccrun -ckpt-at "$step" -store "$one" >/dev/null
"$ccimg" verify "$one" >/dev/null || fail "ccimg verify refused a fresh store"
"$ccimg" info -json "$one" | grep '"kind": "store"' >/dev/null || fail "ccimg info -json did not describe a store"
"$ccimg" extract -rank 1 "$one" | grep '^rank    1: park=' >/dev/null || fail "ccimg extract -rank 1 printed no rank line"
got=$(ccrun -restart-store "$one" | digest_of)
echo "restart from store:   $got"
[ "$got" = "$want" ] || fail "restart from the one-epoch store diverged"

printf MANAIMG3 >"$work/job.img"
for cmd in "ccrun -restart-store" "$ccimg verify"; do
	if $cmd "$work/job.img" >/dev/null 2>"$work/err"; then
		fail "$cmd accepted a regular file"
	fi
	grep -q "not a store directory" "$work/err" || fail "$cmd on a regular file: $(cat "$work/err")"
done
if ccrun -epoch 0 >/dev/null 2>"$work/err"; then
	fail "ccrun accepted -epoch without -restart-store"
fi
grep -q "requires -restart-store" "$work/err" || fail "ccrun -epoch alone: $(cat "$work/err")"
missing="$work/no-such-store"
if ccrun -restart-store "$missing" >/dev/null 2>"$work/err"; then
	fail "ccrun -restart-store accepted a missing path"
fi
grep -q "no such file or directory" "$work/err" || fail "ccrun -restart-store on a missing path: $(cat "$work/err")"
[ ! -e "$missing" ] || fail "ccrun -restart-store created the missing path"

# (c) through a store chain, one process per leg
store="$work/store"
from=()
parent_cold_done=0
pinned=""
for ((leg = 0; leg < max_legs; leg++)); do
	at=$(awk -v k="$leg" -v s="$step" 'BEGIN { printf "%.4f", s * (k + 1) }')
	out=$(ccrun "${from[@]}" -ckpt-at "$at" -incremental -store "$store")
	from=(-restart-store "$store")
	counts=$(sed -n 's/.*epoch [0-9]*: \([0-9]*\) fresh \/ \([0-9]*\) reused shards.*/\1 \2/p' <<<"$out")
	[ -n "$counts" ] || fail "leg $leg sealed no epoch (the run ended before the precondition held)"
	read -r fresh reused <<<"$counts"
	echo "leg $leg (vt $at):      $fresh fresh / $reused reused shards"
	if [ "$parent_cold_done" = 1 ]; then
		[ "$reused" -eq "$cold" ] || fail "leg $leg reused $reused shards, want the $cold cold ranks'"
		pinned=$leg
		break
	fi
	if [ "$("$ccimg" info -v "$store" | grep -c '^rank .*park=done')" -ge "$cold" ]; then
		parent_cold_done=1
	fi
done
[ -n "$pinned" ] || fail "no epoch held every cold rank as done within $max_legs legs"
"$ccimg" verify "$store" >/dev/null || fail "ccimg verify found faults in the store chain"
got=$(ccrun -restart-store "$store" | digest_of)
echo "restart from chain:   $got"
[ "$got" = "$want" ] || fail "restart from the store chain diverged"
echo "cli_roundtrip: ok (three equal digests; leg $pinned reused the $cold cold shards across processes)"
