#!/bin/sh
# Size report: the two numbers the roadmap tracks from change to change, for
# each tree given (default: this checkout), joined by " -> " (cmd/opprox-ab).
set -eu
[ $# -gt 0 ] || set -- "$(dirname "$0")/.."
lines='' flags=''
for dir; do
    lines=${lines:+$lines -> }$(find "$dir/internal" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
    flags=${flags:+$flags -> }$(cd "$dir" && go run ./cmd/opprox-serve -h 2>&1 | grep -c '^  -')
done
echo "internal/ non-test Go lines: $lines"
echo "opprox-serve flags: $flags"
