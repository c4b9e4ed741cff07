#!/bin/sh
# Fail when a Go package in the module has no _test.go file at all, or
# carries only vacuous test files (no Test/Benchmark/Fuzz/Example
# function), so a new package cannot slip past the gate with an empty
# placeholder. Examples are demo programs, not production surface, and
# are exempt. Also fail when an alternative of a -run pattern in a
# Makefile recipe (other than xxx, which selects no test on purpose) is
# the prefix of no Test function in the module, so a renamed or deleted
# test cannot leave a target that silently runs nothing.
set -eu

cd "$(dirname "$0")/.."

missing=$(go list -f '{{if and (not .TestGoFiles) (not .XTestGoFiles)}}{{.ImportPath}}{{end}}' ./... |
	grep -v '^$' | grep -v '/examples/' || true)

if [ -n "$missing" ]; then
	echo "packages without any _test.go file:" >&2
	echo "$missing" | sed 's/^/  /' >&2
	exit 1
fi

vacuous=$(go list -f '{{$d := .Dir}}{{range .TestGoFiles}}{{$d}}/{{.}} {{end}}{{range .XTestGoFiles}}{{$d}}/{{.}} {{end}}{{printf "\t"}}{{.ImportPath}}' ./... |
	grep -v '/examples/' |
	while IFS="$(printf '\t')" read -r files pkg; do
		[ -n "$files" ] || continue
		# shellcheck disable=SC2086 # files is a space-separated list
		if ! grep -l -E '^func (Test|Benchmark|Fuzz|Example)' $files >/dev/null 2>&1; then
			echo "$pkg"
		fi
	done)

if [ -n "$vacuous" ]; then
	echo "packages whose test files define no Test/Benchmark/Fuzz/Example function:" >&2
	echo "$vacuous" | sed 's/^/  /' >&2
	exit 1
fi
tests=$(grep -rhoE --include='*_test.go' --exclude-dir=bench --exclude-dir=testdata --exclude-dir=.bench_build \
	'^func Test[A-Za-z0-9_]*' . | sed 's/^func //' | sort -u)
tab=$(printf '\t')
stale=$(grep "^$tab" Makefile | grep -oE -e "-run ('[^']*'|[^ ]+)" | sed -e 's/^-run //' -e "s/'//g" | tr '|' '\n' | sort -u |
	while read -r alt; do
		[ "$alt" = xxx ] && continue
		printf '%s\n' "$tests" | grep -q "^$alt" || echo "$alt"
	done)

if [ -n "$stale" ]; then
	echo "Makefile -run names that match no Test function:" >&2
	echo "$stale" | sed 's/^/  /' >&2
	exit 1
fi
echo "every package carries tests, and every Makefile -run name matches one"
