#!/bin/sh
# loc.sh — print the net production Go line count: every tracked .go
# file except tests and the perfbench module, comments and blank lines
# included. Run it before and after a change to report the delta.
set -eu
cd "$(dirname "$0")/.."
git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^perfbench/' | xargs cat | wc -l
