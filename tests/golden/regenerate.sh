#!/bin/sh
# Rewrites tests/golden/<bench>.txt from the benches of a build tree:
#
#   tests/golden/regenerate.sh [build-dir]     (default: build)
#
# Regenerating is a deliberate change to the reproduction's output: the
# change that does it says in CHANGES.md which numbers moved and why.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
build=${1:-build}
exec cmake -DBENCH_DIR="$build/bench" -DGOLDEN_DIR="$here" -DUPDATE=ON \
  -P "$here/golden.cmake"
