#!/usr/bin/env bash
# Stale-reference check for the documents that tell a reader what to
# run: every `make <target>` they name is a Makefile target, and every
# cmd/<x> or examples/<x> they name is a directory. ROADMAP.md and
# CHANGES.md are history and are not scanned; bench/README.md joins when
# a benchmark PR (the only kind that edits bench/) drops its sentence
# about the make target this repo no longer has.
set -euo pipefail
cd "$(dirname "$0")/.."
docs=(README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md)
bad=0
for doc in "${docs[@]}"; do
  # A target is named in backticks or starts a line of a code block.
  for target in $(grep -ohE '(^|`)make [a-z][a-z0-9-]*' "$doc" | awk '{print $2}' | sort -u); do
    grep -qE "^$target:" Makefile || { echo "$doc: make $target: no such target"; bad=1; }
  done
  for dir in $(grep -ohE '\b(cmd|examples)/[a-z0-9_]+' "$doc" | sort -u); do
    [ -d "$dir" ] || { echo "$doc: $dir: no such directory"; bad=1; }
  done
done
exit $bad
