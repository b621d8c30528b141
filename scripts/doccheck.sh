#!/usr/bin/env bash
# Stale-reference check for the documents that tell a reader what to
# run: every `make <target>` they name is a Makefile target, every
# cmd/<x> or examples/<x> they name is a directory, every Test…/
# Fuzz… identifier they name is a prefix of some func in a _test.go file
# (a prefix, because the docs write TestWarmFetchSurvives*), every
# `-exp <id>` they name is in cmd/indirectlab's expIDs, and every -flag
# written after fetch, relayd, registryd, origind or indirectlab (up to
# the end of its backtick span or line) is defined by a flag.*("name"
# in cmd/ or internal/daemon. Every |-separated name in a Makefile
# recipe's -run pattern (anchors stripped) must be a substring of some
# Test…/Fuzz… func in one of the packages that recipe line names, so a
# pattern naming a deleted or moved test fails here instead of silently
# matching nothing. No doc cites a ROADMAP item by number: items are
# renumbered as they land, so a doc names the question or metric. Every
# repro.X they name is declared in a non-test root *.go file (a func,
# type, const or var, or an `X =` line of a grouped block), and every
# <pkg>.X they name, for a package under internal/ (pkg is the
# directory's last element), is declared in that package's non-test files
# (a func, type, const or var, or a name opening a line of a grouped
# const/var/type block; a method is not a package-level name). A trailing
# * (relay.With*) asks only that some declared name start so. A deleted
# option, type or facade name cannot linger in a snippet. ROADMAP.md and
# CHANGES.md are history and are not scanned; bench/README.md joins when
# a benchmark PR (the only kind that edits bench/) drops its sentence
# about the make target this repo no longer has.
set -euo pipefail
cd "$(dirname "$0")/.."
docs=(README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md)
bad=0
expids=$(sed -n '/^var expIDs = /,/}$/p' cmd/indirectlab/main.go | grep -oE '"[a-z0-9]+"' | tr -d '"')
testfuncs=$(grep -rhoE --include='*_test.go' '^func (Test|Fuzz)[A-Za-z0-9_]*' . | awk '{print $2}' | sort -u)
flags=$(grep -rhoE --include='*.go' '(flag|fs)\.[A-Za-z0-9]+\((&[A-Za-z0-9_.]+, )?"[a-z0-9-]+"' cmd internal/daemon |
  grep -oE '"[a-z0-9-]+"$' | tr -d '"' | sort -u)
for doc in "${docs[@]}"; do
  # A target is named in backticks or starts a line of a code block.
  for target in $(grep -ohE '(^|`)make [a-z][a-z0-9-]*' "$doc" | awk '{print $2}' | sort -u); do
    grep -qE "^$target:" Makefile || { echo "$doc: make $target: no such target"; bad=1; }
  done
  for dir in $(grep -ohE '\b(cmd|examples)/[a-z0-9_]+' "$doc" | sort -u); do
    [ -d "$dir" ] || { echo "$doc: $dir: no such directory"; bad=1; }
  done
  for id in $(grep -ohE -- '-exp [a-z0-9,]+' "$doc" | awk '{print $2}' | tr ',' '\n' | sort -u); do
    grep -qx "$id" <<<"$expids" || { echo "$doc: -exp $id: no such experiment"; bad=1; }
  done
  for name in $(grep -ohE '(^|[[:space:]`]|\.verify-bin/)(fetch|relayd|registryd|origind|indirectlab)[[:space:]]+-[^`]*' "$doc" |
      grep -oE '(^|[[:space:]])-[a-z][a-z0-9-]*' | sed -E 's/^[[:space:]]*-//' | sort -u); do
    grep -qx -- "$name" <<<"$flags" || { echo "$doc: -$name: no such flag"; bad=1; }
  done
  for ref in $(grep -ohE '\brepro\.[A-Z][A-Za-z0-9_]*' "$doc" | sort -u); do
    name=${ref#repro.}
    grep -qE --exclude='*_test.go' "^((func|type|const|var) $name\b|"$'\t'"$name[[:space:]]*=)" ./*.go ||
      { echo "$doc: $ref: not declared in package repro"; bad=1; }
  done
  for name in $(grep -ohE '\b(Test|Fuzz)[A-Z][A-Za-z0-9_]*' "$doc" | sort -u); do
    grep -q "^$name" <<<"$testfuncs" || { echo "$doc: $name: no such test"; bad=1; }
  done
  # A citation may wrap: "ROADMAP" ends one line, "item" starts the next.
  tr '\n' ' ' <"$doc" | grep -qE 'ROADMAP[[:space:]]+item' &&
    { echo "$doc: cites a ROADMAP item number; name the question or metric"; bad=1; }
done
# The exported package-level names the given Go files declare.
declared() {
  awk '
    /^(const|var|type) \($/ { grp = 1; next }
    grp && /^\)/ { grp = 0; next }
    grp && match($0, /^\t[A-Z][A-Za-z0-9_]*/) { print substr($0, 2, RLENGTH - 1); next }
    match($0, /^(func|type|const|var) [A-Z][A-Za-z0-9_]*/) { n = substr($0, 1, RLENGTH); sub(/^[a-z]+ /, "", n); print n }
  ' "$@" | sort -u
}
for dir in $(find internal -name '*.go' ! -name '*_test.go' -exec dirname {} + | sort -u); do
  pkg=${dir##*/}
  refs=$(grep -ohE "\b$pkg\.[A-Z][A-Za-z0-9_]*\*?" "${docs[@]}" /dev/null | sort -u) || continue
  names=$(declared $(ls "$dir"/*.go | grep -v '_test\.go$'))
  for ref in $refs; do
    name=${ref#*.}
    case $name in
    *\*) grep -q "^${name%\*}" <<<"$names" ;;
    *) grep -qx "$name" <<<"$names" ;;
    esac || { echo "$(grep -lF "$ref" "${docs[@]}" | paste -sd ' '): $ref: not declared in $dir"; bad=1; }
  done
done
# Recipe lines, continuations joined; the packages are the ./ arguments.
while IFS= read -r line; do
  pattern=$(grep -oE -- "-run ('[^']*'|[^[:space:]']+)" <<<"$line" | sed -E "s/^-run //; s/'//g") || continue
  pkgs=$(tr -s ' \t' '\n' <<<"$line" | grep -E '^\.(/|$)' | sed -E 's#/?$#/#')
  funcs=$(for pkg in $pkgs; do grep -hoE '^func (Test|Fuzz)[A-Za-z0-9_]*' "$pkg"*_test.go || true; done | awk '{print $2}')
  for name in $(tr '|' '\n' <<<"$pattern" | tr -d '^$'); do
    grep -qF -- "$name" <<<"$funcs" || { echo "Makefile: -run $name: matches no test in" $pkgs; bad=1; }
  done
done < <(sed -e ':a' -e '/\\$/N; s/\\\n//; ta' Makefile | grep -E $'^\t')
exit $bad
