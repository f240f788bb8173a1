# Development targets mirroring .github/workflows/ci.yml.

GO ?= go

.PHONY: all build test lint bench sweep-demo rare-demo clean

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

# Run the checked-in demo campaign (params/sweep-demo.params).
sweep-demo:
	$(GO) run ./cmd/sweep

# Run the rare-event estimator demo campaign (params/rare-demo.params).
rare-demo:
	$(GO) run ./cmd/sweep -spec params/rare-demo.params

clean:
	$(GO) clean ./...
