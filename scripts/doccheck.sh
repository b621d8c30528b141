#!/usr/bin/env bash
# Stale-reference check for the documents that tell a reader what to
# run: every `make <target>` they name is a Makefile target, every
# cmd/<x> or examples/<x> they name is a directory, every Test…/
# Fuzz… identifier they name is a prefix of some func in a _test.go file
# (a prefix, because the docs write TestWarmFetchSurvives*), and every
# `-exp <id>` they name is in cmd/indirectlab's expIDs. ROADMAP.md and
# CHANGES.md are history and are not scanned; bench/README.md joins when
# a benchmark PR (the only kind that edits bench/) drops its sentence
# about the make target this repo no longer has.
set -euo pipefail
cd "$(dirname "$0")/.."
docs=(README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md)
bad=0
expids=$(sed -n '/^var expIDs = /,/}$/p' cmd/indirectlab/main.go | grep -oE '"[a-z0-9]+"' | tr -d '"')
testfuncs=$(grep -rhoE --include='*_test.go' '^func (Test|Fuzz)[A-Za-z0-9_]*' . | awk '{print $2}' | sort -u)
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
  for name in $(grep -ohE '\b(Test|Fuzz)[A-Z][A-Za-z0-9_]*' "$doc" | sort -u); do
    grep -q "^$name" <<<"$testfuncs" || { echo "$doc: $name: no such test"; bad=1; }
  done
done
exit $bad
