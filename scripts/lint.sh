#!/usr/bin/env bash
# Single entry point for every style and static check. CI's lint job runs
# this same script (after installing staticcheck/govulncheck), so a clean
# local run means a clean lint job; its gofmt and vet steps cover what the
# test job's do, the separate bench module included. Tools that are not
# installed locally are skipped with a warning rather than failing the run.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt -l -s"
out="$(gofmt -l -s bench cmd internal examples ./*.go)"
if [ -n "$out" ]; then
  echo "gofmt -s needed on:" >&2
  echo "$out" >&2
  exit 1
fi

echo "== go vet"
go vet ./...
# bench/ is its own module, so ./... above does not reach it.
go -C bench vet ./...

echo "== trimlint"
go run ./cmd/trimlint ./...

# The dead-export check needs the whole module (bench/ included) at once,
# so it is a root test rather than a trimlint analyzer (DESIGN.md §10).
echo "== deadexport"
go test -count=1 -run '^(TestNoDeadExports|TestDeadExportsFixture)$' .

echo "== staticcheck"
if command -v staticcheck >/dev/null 2>&1; then
  staticcheck ./...
else
  echo "staticcheck not installed; skipped (CI installs it)" >&2
fi

echo "== govulncheck"
if command -v govulncheck >/dev/null 2>&1; then
  govulncheck ./...
else
  echo "govulncheck not installed; skipped (CI installs it)" >&2
fi

echo "lint clean"
