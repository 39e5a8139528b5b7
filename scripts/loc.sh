#!/usr/bin/env bash
# Non-test Go line counts, run as `make loc`: one line per internal/
# package directory, the internal/ subtotal, and the total over the
# whole module. perfbench/ (its own module) and the benchmark's
# .bench_build/ output are excluded.
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
	find "$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | wc -l
}

for dir in internal/*/; do
	printf '%-22s %6d\n' "${dir%/}" "$(count "$dir")"
done
printf '%-22s %6d\n' "internal (all)" "$(count internal)"
printf '%-22s %6d\n' "total" "$(count . -not -path './perfbench/*' -not -path './.bench_build/*')"
