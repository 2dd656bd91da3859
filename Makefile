# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short vet lint bench bench-e2e results results-check obs-smoke trace-smoke serve-smoke shard-smoke fleet-obs-smoke clean

all: build vet lint test

build:
	go build ./...

vet:
	go vet ./...

# Mirror of CI's lint job: the repo's own determinism/hot-path analyzers
# (cmd/crlint) run through the go vet driver, then standalone with -json to
# write the bin/crlint.ndjson diagnostics artifact (diag events + a summary
# line, even when clean); staticcheck and govulncheck run when installed and
# are skipped with a note otherwise, so `make lint` works in offline
# sandboxes.
lint:
	go build -o bin/crlint ./cmd/crlint
	go vet -vettool=$(CURDIR)/bin/crlint ./...
	bin/crlint -json ./... > bin/crlint.ndjson
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; fi

test:
	go test ./...

test-short:
	go test -short ./...

bench:
	go test -run '^$$' -bench . -benchmem ./...

# The repository's end-to-end benchmark (perfbench/, BENCHMARK.json) at the
# settings BENCH_e2e.json records: each workload untraced for 30 s, seed 7.
# Metrics print to stdout; each run's full report is kept as
# bin/e2e-<workload>.json, and `bash perfbench/run.sh compare A.json B.json`
# compares two reports taken on one machine.
bench-e2e:
	mkdir -p bin
	for w in e1 solve-large fleet-mix; do \
		bash perfbench/run.sh --workload $$w --trace 0 --seconds 30 --seed 7 --out bin/e2e-$$w.json || exit 1; \
	done

# Regenerate every reproduction experiment at full scale (minutes).
results:
	go run ./cmd/crbench -seed 7 -o results_full.txt

# Mirror of CI's results-check job: regenerate E1–E18 at full scale into a
# temporary file and require it to be byte-identical to results_full.txt,
# so every experiment's full-scale bytes stay pinned.
results-check:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
		go run ./cmd/crbench -seed 7 -o "$$tmp" && \
		cmp "$$tmp" results_full.txt && echo "results_full.txt reproduced byte for byte"

# Mirror of CI's obs-smoke job: exercise the -metrics/-cpuprofile/-memprofile
# flags end to end and validate the NDJSON report (jq when installed).
obs-smoke:
	go run ./cmd/crsim -n 64 -trials 3 -seed 7 \
		-metrics bin/metrics.ndjson -cpuprofile bin/cpu.pprof -memprofile bin/mem.pprof
	@if command -v jq >/dev/null 2>&1; then jq -ce . bin/metrics.ndjson > /dev/null && echo "NDJSON report valid"; \
	else echo "jq not installed, skipping NDJSON validation"; fi
	@test -s bin/cpu.pprof && test -s bin/mem.pprof && echo "profiles written"

# Mirror of CI's trace-smoke job: traced and untraced runs must have
# identical stdout, same-seed traces must be byte-identical (crtrace diff
# exits 0), and bounded Monte Carlo capture must sample deterministically.
trace-smoke:
	mkdir -p bin
	go run ./cmd/crsim -n 64 -seed 7 -trace-out bin/trace-a.ndjson -trace-classes > bin/out-traced.txt
	go run ./cmd/crsim -n 64 -seed 7 > bin/out-plain.txt
	cmp bin/out-traced.txt bin/out-plain.txt
	go run ./cmd/crsim -n 64 -seed 7 -trace-out bin/trace-b.ndjson -trace-classes > /dev/null
	cmp bin/trace-a.ndjson bin/trace-b.ndjson
	go run ./cmd/crtrace diff bin/trace-a.ndjson bin/trace-b.ndjson
	rm -rf bin/traces
	go run ./cmd/crsim -n 64 -trials 6 -seed 7 -trace-dir bin/traces -trace-every 2 > /dev/null
	go run ./cmd/crtrace summary bin/traces/*.ndjson
	@if command -v jq >/dev/null 2>&1; then jq -ce . bin/trace-a.ndjson > /dev/null && echo "trace NDJSON valid"; \
	else echo "jq not installed, skipping NDJSON validation"; fi

# Mirror of CI's serve-smoke job: boot the crserve daemon, run the whole
# client workflow over HTTP (submit → stream → result), prove the cache hit
# serves bytes identical to the cold run, and drain gracefully on SIGTERM.
serve-smoke:
	./scripts/serve-smoke.sh

# Mirror of CI's shard-smoke job: sharded runs (crbench -shards, crshard over
# two crserve daemons, and a run that loses a daemon and re-dispatches) must
# all be byte-identical to the unsharded run.
shard-smoke:
	./scripts/shard-smoke.sh

# Mirror of CI's fleet-obs-smoke job: a sharded -trace-dir run over two
# crserve daemons must reassemble a trace directory byte-identical to the
# unsharded capture, the coordinator span log must summarise through
# `crtrace spans`, and `crshard -metrics-fleet` must emit a valid merged
# metrics snapshot.
fleet-obs-smoke:
	./scripts/fleet-obs-smoke.sh

clean:
	go clean ./...
	rm -rf bin
