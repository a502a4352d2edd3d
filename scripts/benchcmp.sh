#!/bin/sh
# Same-host timing gate (DESIGN.md §9): runs the benchmark set below in two
# checkouts, the parent commit and the change, for PAIRS pairs, alternating
# which side runs first, and fails a benchmark when the change is slower
# in at least SLOWER of the pairs and its median ns/op exceeds the parent's
# by more than THRESHOLD. A benchmark present on one side only is reported,
# not gated. Runs at GOMAXPROCS 1 so the verdict does not depend on how
# many cores the host lends each run.
#
#   sh scripts/benchcmp.sh PARENT_DIR CHANGE_DIR
set -eu
[ $# -eq 2 ] || { echo "usage: sh scripts/benchcmp.sh PARENT_DIR CHANGE_DIR" >&2; exit 2; }
parent=$(cd "$1" && pwd) change=$(cd "$2" && pwd)
PAIRS=10 SLOWER=9 THRESHOLD=1.15 BENCHTIME=200ms
# One package per line: its directory, then a regexp of its benchmarks.
SET='internal/des ^Benchmark(ScheduleAndFireWarm|SelfPerpetuatingChain|ScheduleCancel|CalendarMixed|CalendarScale)$
internal/graph ^BenchmarkBarabasiAlbertCSR(1M)?$
internal/mms ^Benchmark(ShardExchange(FanIn)?|DeliverDuplicates)$
internal/response ^BenchmarkImmunizerWave$
internal/store ^BenchmarkCodecRoundTrip$
. ^BenchmarkFigure1Baselines$
internal/experiment ^BenchmarkSweep(Reduced|Distributed)$
internal/core ^BenchmarkPopulation100k(Response)?$
internal/virus ^BenchmarkAttach100k$
cmd/mvlint ^BenchmarkLintModule$'

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
for side in parent change; do
	eval "root=\$$side"
	echo "$SET" | while read -r pkg re; do
		(cd "$root" && go test -c -o "$work/$side-$(echo "$pkg" | tr ./ __).test" "./$pkg")
	done
done

pair=1
while [ "$pair" -le "$PAIRS" ]; do
	if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
	echo "$SET" | while read -r pkg re; do
		for side in $order; do
			eval "root=\$$side"
			bin="$work/$side-$(echo "$pkg" | tr ./ __).test"
			[ -x "$bin" ] || continue
			if ! (cd "$root/$pkg" && "$bin" -test.run '^$' -test.bench "$re" -test.benchtime "$BENCHTIME" \
				-test.cpu 1 -test.timeout 10m >"$work/out"); then
				cat "$work/out" >&2
				echo "benchcmp: benchmarks of $pkg failed in $root" >&2
				exit 2
			fi
			awk -v side="$side" -v pair="$pair" '$1 ~ /^Benchmark/ && $4 == "ns/op" {
				sub(/-[0-9]+$/, "", $1); print side, $1, pair, $3 }' "$work/out"
		done
	done >>"$work/runs"
	pair=$((pair + 1))
done

awk -v pairs="$PAIRS" -v slower="$SLOWER" -v threshold="$THRESHOLD" '
function median(side, name,   v, n, i, j, t) {
	n = 0
	for (i = 1; i <= pairs; i++) if ((side, name, i) in ns) v[++n] = ns[side, name, i]
	for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
	return n % 2 ? v[(n + 1) / 2] : (v[n / 2] + v[n / 2 + 1]) / 2
}
{ if (!($2 in seen)) names[++nn] = $2; seen[$2] = 1; ns[$1, $2, $3] = $4 + 0; has[$1, $2] = 1 }
END {
	printf "%-36s %14s %14s %7s %7s\n", "benchmark", "parent ns/op", "change ns/op", "ratio", "slower"
	for (k = 1; k <= nn; k++) {
		name = names[k]
		if (!((("parent", name) in has) && (("change", name) in has))) {
			printf "%-36s only in %s: not gated\n", name, (("parent", name) in has) ? "parent" : "change"
			continue
		}
		n = 0
		for (i = 1; i <= pairs; i++) if (ns["change", name, i] > ns["parent", name, i]) n++
		p = median("parent", name); c = median("change", name)
		bad = n >= slower && c > threshold * p
		printf "%-36s %14.1f %14.1f %7.3f %4d/%d%s\n", name, p, c, c / p, n, pairs, bad ? "  REGRESSED" : ""
		failed += bad
	}
	exit failed > 0 ? 1 : 0
}' "$work/runs"
