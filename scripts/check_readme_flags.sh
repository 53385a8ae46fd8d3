#!/usr/bin/env bash
# Docs-consistency gate, both ways: every CLI flag README.md names must exist
# in the corresponding binary's -help output, and every flag a binary's
# -help lists must be named in its README section — so a deleted flag cannot
# leave a stale README row and a new flag cannot go undocumented. Flags are
# collected from each tool's README section (between its "### <tool>"
# heading and the next heading): fenced code blocks and the first column of
# flag tables.
set -euo pipefail
cd "$(dirname "$0")/.."

bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
go build -o "$bindir" ./cmd/...

# help_of prints a tool's full flag help. ccimg parses per-subcommand
# FlagSets, so its help is the union of the subcommands'.
help_of() {
  case "$1" in
    ccimg)
      "$bindir/ccimg" info -h 2>&1 || true
      "$bindir/ccimg" verify -h 2>&1 || true
      "$bindir/ccimg" extract -h 2>&1 || true
      "$bindir/ccimg" gc -h 2>&1 || true
      "$bindir/ccimg" compact -h 2>&1 || true
      ;;
    *) "$bindir/$1" -help 2>&1 || true ;;
  esac
}

# section_flags extracts "-flag" tokens from one tool's README section:
# fenced code blocks plus table rows whose first cell is a backticked flag.
section_flags() {
  # Fence state is tracked globally and BEFORE heading detection: a "# ..."
  # shell comment inside a code block is not a heading and must not end the
  # section.
  awk -v tool="$1" '
    /^```/ { incode = !incode; next }
    !incode && /^#/ { insec = ($0 ~ "^### " tool); next }
    insec && incode { print }
    insec && /^\| *`-/ { print }
  ' README.md |
    grep -oE '(^|[ `(])-[a-z][a-z0-9-]*' |
    sed -E 's/^[ `(]*-//' |
    sort -u
}

# help_flags lists the flag names a tool's -help output defines (the flag
# package prints each as "  -name ...").
help_flags() {
  grep -oE '^  -[a-z][a-z0-9-]*' <<<"$1" | sed -E 's/^  -//' | sort -u
}

fail=0
for tool in ccrun ccverify ccimg ccbench cclint; do
  if ! grep -qE "^### $tool" README.md; then
    echo "README.md: missing a '### $tool' section"
    fail=1
    continue
  fi
  help="$(help_of "$tool")"
  for f in $(section_flags "$tool"); do
    case "$f" in
      h|help) continue ;; # flag-package builtins
    esac
    if ! grep -qE "(^|[[:space:]])-$f([[:space:]]|\$)" <<<"$help"; then
      echo "README.md: $tool section names flag -$f, absent from $tool's -help"
      fail=1
    fi
  done
  named="$(section_flags "$tool")"
  for f in $(help_flags "$help"); do
    if ! grep -qx -- "$f" <<<"$named"; then
      echo "README.md: $tool's -help lists flag -$f, absent from its README section"
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check ok: README flags match the binaries, both ways"
