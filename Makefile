# Development targets mirroring .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test lint bench bench-json sweep-demo rare-demo clean

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...

# One iteration of every benchmark: a smoke pass over the paper-figure
# reproduction harness and the campaign engine.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# Record one point of the performance trajectory: run the E1-E8 harness and
# the lookup hot path, writing BENCH_<date>.json (see scripts/bench.sh for
# the knobs; compare snapshots with `go run ./cmd/benchjson -compare`).
bench-json:
	sh scripts/bench.sh

# Run the checked-in demo campaign (params/sweep-demo.params).
sweep-demo:
	$(GO) run ./cmd/sweep

# Run the rare-event estimator demo campaign (params/rare-demo.params).
rare-demo:
	$(GO) run ./cmd/sweep -spec params/rare-demo.params

clean:
	$(GO) clean ./...
