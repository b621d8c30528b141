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
# recipe's -run pattern (anchors stripped) must be a substring of some Test…/Fuzz…
# func, so a pattern naming a deleted test fails here instead of
# silently matching nothing. ROADMAP.md and
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
  for name in $(grep -ohE '\b(Test|Fuzz)[A-Z][A-Za-z0-9_]*' "$doc" | sort -u); do
    grep -q "^$name" <<<"$testfuncs" || { echo "$doc: $name: no such test"; bad=1; }
  done
done
for name in $(grep -E $'^\t' Makefile | grep -oE -- "-run ('[^']*'|[^[:space:]']+)" | sed -E "s/^-run //; s/'//g" |
    tr '|' '\n' | tr -d '^$' | sort -u); do
  grep -qF -- "$name" <<<"$testfuncs" || { echo "Makefile: -run $name: matches no test"; bad=1; }
done
exit $bad
