#!/usr/bin/env bash
# Runs the named tests of one package, and fails when a name matches no test.
# A plain `go test -run REGEX` whose regex matches nothing prints "no tests
# to run" and passes, so a renamed or moved test would silently stop running.
#
#   bash .github/run-named-tests.sh PKG 'TestA|TestB' [go test flags...]
#
# Names are exact test names joined by '|'; the run is anchored to them.
set -euo pipefail

pkg=$1
names=$2
shift 2

listed=$(go test -list "^($names)\$" "$pkg")
missing=0
IFS='|' read -ra want <<< "$names"
for name in "${want[@]}"; do
  if ! grep -qx "$name" <<< "$listed"; then
    echo "$pkg has no test named $name" >&2
    missing=1
  fi
done
if [ "$missing" -ne 0 ]; then
  exit 1
fi
exec go test "$@" -run "^($names)\$" "$pkg"
