#!/bin/sh
# Local quality gate: formatting, vet, mvlint, the full test suite
# under the race detector, and every example run to completion. Each
# step is a Make target so CI can run them as separate, individually
# visible steps without drifting from this script. Run from the
# repository root (or let the cd handle it).
set -eu
cd "$(dirname "$0")/.."

make fmt-check
make vet
make lint
make race
make examples
