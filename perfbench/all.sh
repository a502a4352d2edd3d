#!/usr/bin/env bash
# Runs every workload in turn and prints each one's metrics. Run from the
# repository root; extra flags go to every run:
#
#   bash perfbench/all.sh --seed 1 --seconds 30 --trace 0
#
# Exits non-zero if a run fails or reports incorrect output.
set -euo pipefail

status=0
for w in paper-figures scale-outbreak scale-response; do
	echo "== $w"
	out=$(bash perfbench/run.sh --workload "$w" "$@") || status=1
	printf '%s\n' "$out"
	case "$(printf '%s\n' "$out" | tail -n 1)" in
	'{"correct":true,'*) ;;
	*) status=1 ;;
	esac
done
exit $status
