#!/usr/bin/env bash
# Lines of non-test Go outside benchmark/ — the figure every CHANGES.md
# entry quotes before and after. Run from anywhere inside the repo.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"
git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l
