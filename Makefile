GO ?= go

.PHONY: all build test lint lint-negative race bench

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs the exact script CI runs: gofmt, go vet, stmlint, and
# staticcheck when installed.
lint:
	./scripts/lint.sh

# lint-negative proves the stmlint gate rejects an injected violation.
lint-negative:
	./scripts/stmlint_negative.sh

# race and bench are the exact commands CI runs (ci.yml calls these
# targets), so the package lists cannot drift from the workflow again.
race:
	$(GO) test -race -short ./...

bench:
	$(GO) test -bench=. -benchtime=1x -count=1 -run '^$$' \
		./internal/microbench ./internal/core ./internal/tl2 \
		./internal/kvproto ./internal/kvserver ./internal/obs .
