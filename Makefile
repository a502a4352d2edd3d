GO ?= go

.PHONY: build test examples bench microbench check fmt fmt-check vet lint lint-audit race benchmod

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every runnable example, to completion: go vet compiles them, but only
# running them catches an example that fails or panics.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		$(GO) run "./$$d" > /dev/null || exit 1; \
	done

# Same-host timing gate (see DESIGN.md §9): the benchmark set in a
# worktree of the merge base with main against this checkout.
bench:
	@dir=$$(mktemp -d) && \
	git worktree add --quiet --detach "$$dir" "$$(git merge-base HEAD main)" && \
	{ sh scripts/benchcmp.sh "$$dir" .; status=$$?; git worktree remove --force "$$dir"; exit $$status; }

# Ad-hoc go test benchmarks (figures, ablations, kernels).
microbench:
	$(GO) test -bench=. -benchmem

fmt:
	gofmt -w cmd examples internal perfbench bench_test.go

# Fails (listing the files) instead of rewriting, for CI.
fmt-check:
	@unformatted=$$(gofmt -l cmd examples internal perfbench bench_test.go); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi

vet:
	$(GO) vet ./...

# Determinism & simulation-hygiene static analysis, including the
# interprocedural hot-path/publication/goroutine rules (DESIGN.md §8, §13).
lint:
	$(GO) run ./cmd/mvlint ./...

# Suppression hygiene: additionally flag //mvlint:allow comments whose
# finding has since been fixed, and typo'd rule names. Run nightly in CI.
lint-audit:
	$(GO) run ./cmd/mvlint -staleallow ./...

race:
	$(GO) test -race ./...

# perfbench/ is a nested module that ./... does not reach, so a change to
# the exported API it uses would otherwise break only the benchmark
# pipeline.
benchmod:
	cd perfbench && $(GO) vet . && $(GO) test .

# The full local gate: formatting, vet, mvlint, race-enabled tests, the
# examples and the benchmark module.
check:
	sh scripts/check.sh
