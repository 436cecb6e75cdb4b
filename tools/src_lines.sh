#!/usr/bin/env bash
# Print the src/ line count that CHANGES.md entries record: `wc -l`
# over every .cc and .hh file under src/, blank and comment lines
# included. Run from anywhere: tools/src_lines.sh
set -eu
cd "$(dirname "$0")/.."
find src \( -name '*.cc' -o -name '*.hh' \) -print0 | sort -z |
    xargs -0 cat | wc -l
