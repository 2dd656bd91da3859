# Convenience targets; everything is plain `go` underneath.

.PHONY: all build test test-short vet lint bench bench-e2e hotloops results results-check obs-smoke trace-smoke serve-smoke shard-smoke fleet-obs-smoke clean

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

# Mirror of CI's hotloops step: the SINR pair loops make no call (DESIGN.md
# §8, "Pair loops"). Builds crsim and requires the disassembly of the three
# pair-loop kernels to call nothing but the pre-loop signal pass and the
# runtime's panic and stack-growth paths; their speed rests on inlining
# decisions that no test sees.
hotloops:
	./scripts/hotloops.sh

# Regenerate every reproduction experiment at full scale (minutes).
results:
	go run ./cmd/crbench -seed 7 -o results_full.txt

# Mirror of CI's results-check job: regenerate E1–E18 at full scale into a
# temporary file and require it to be byte-identical to results_full.txt,
# so every experiment's full-scale bytes stay pinned; then run crsim, whose
# SINR rounds spread their listener tiles over the cores, at GOMAXPROCS 1,
# 2 and 4 and require identical output, since the worker count every
# channel picks from the cores must never change a result: unfaded, and
# faded, whose tiles each start from a copy of the round's fade stream;
# and run it at n = 2^18 (about 4 s), whose certified rounds' cell-ordered
# tiles span the most grid cells, at GOMAXPROCS 1 and 2.
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		go run ./cmd/crbench -seed 7 -o "$$tmp/results.txt" && \
		cmp "$$tmp/results.txt" results_full.txt && echo "results_full.txt reproduced byte for byte" && \
		go build -o "$$tmp/crsim" ./cmd/crsim && \
		for p in 1 2 4; do \
			GOMAXPROCS=$$p "$$tmp/crsim" -n 16384 -trials 3 -seed 3 > "$$tmp/crsim-$$p.txt" || exit 1; \
		done && \
		cmp "$$tmp/crsim-1.txt" "$$tmp/crsim-2.txt" && cmp "$$tmp/crsim-1.txt" "$$tmp/crsim-4.txt" && \
		echo "crsim -n 16384 -trials 3 -seed 3 identical at GOMAXPROCS 1, 2 and 4" && \
		for p in 1 2 4; do \
			GOMAXPROCS=$$p "$$tmp/crsim" -channel rayleigh -n 16384 -trials 2 -seed 5 > "$$tmp/crsim-faded-$$p.txt" || exit 1; \
		done && \
		cmp "$$tmp/crsim-faded-1.txt" "$$tmp/crsim-faded-2.txt" && cmp "$$tmp/crsim-faded-1.txt" "$$tmp/crsim-faded-4.txt" && \
		echo "crsim -channel rayleigh -n 16384 -trials 2 -seed 5 identical at GOMAXPROCS 1, 2 and 4" && \
		for p in 1 2; do \
			GOMAXPROCS=$$p "$$tmp/crsim" -n 262144 -seed 3 > "$$tmp/crsim-large-$$p.txt" || exit 1; \
		done && \
		cmp "$$tmp/crsim-large-1.txt" "$$tmp/crsim-large-2.txt" && \
		echo "crsim -n 262144 -seed 3 identical at GOMAXPROCS 1 and 2"

# Mirror of CI's obs-smoke job: exercise the -metrics/-cpuprofile/-memprofile
# flags end to end and validate the NDJSON report (jq when installed); on a
# Rayleigh run, require fade brackets to settle the faded listeners, some of
# them on the certificate's walk, with fewer than 1% replayed through the
# exact sum; and require E1, E3 and E12 to record their runs in sim.runs.
obs-smoke:
	mkdir -p bin
	go run ./cmd/crsim -n 64 -trials 3 -seed 7 \
		-metrics bin/metrics.ndjson -cpuprofile bin/cpu.pprof -memprofile bin/mem.pprof
	go run ./cmd/crsim -channel rayleigh -n 1024 -trials 3 -seed 7 -metrics bin/faded-metrics.ndjson
	go run ./cmd/crbench -quick -ids E1,E3,E12 -metrics bin/population-metrics.ndjson > /dev/null
	@if command -v jq >/dev/null 2>&1; then jq -ce . bin/metrics.ndjson > /dev/null && echo "NDJSON report valid" && \
		jq -se '(map(select(.name == "sinr.faded_certified"))[0].value // 0) as $$c | (map(select(.name == "sinr.faded_fallbacks"))[0].value // 0) as $$f | (map(select(.name == "sinr.faded_walked"))[0].value // 0) as $$w | $$c > 0 and $$w > 0 and $$f * 100 < $$c' bin/faded-metrics.ndjson > /dev/null && \
		echo "fade brackets settled the faded listeners, some on the walk" && \
		jq -se '(map(select(.name == "sim.runs"))[0].value // 0) > 0' bin/population-metrics.ndjson > /dev/null && \
		echo "E1, E3 and E12 recorded their runs"; \
	else echo "jq not installed, skipping NDJSON validation"; fi
	@test -s bin/cpu.pprof && test -s bin/mem.pprof && echo "profiles written"

# Mirror of CI's trace-smoke job: traced and untraced runs must have
# identical stdout, same-seed traces must be byte-identical (crtrace diff
# exits 0), the NDJSON and binary traces of one run must hold the same
# trace, and bounded Monte Carlo capture must sample deterministically.
trace-smoke:
	mkdir -p bin
	go run ./cmd/crsim -n 64 -seed 7 -trace-out bin/trace-a.ndjson -trace-classes > bin/out-traced.txt
	go run ./cmd/crsim -n 64 -seed 7 > bin/out-plain.txt
	cmp bin/out-traced.txt bin/out-plain.txt
	go run ./cmd/crsim -n 64 -seed 7 -trace-out bin/trace-b.ndjson -trace-classes > /dev/null
	cmp bin/trace-a.ndjson bin/trace-b.ndjson
	go run ./cmd/crtrace diff bin/trace-a.ndjson bin/trace-b.ndjson
	go run ./cmd/crsim -n 64 -seed 7 -trace-out bin/trace-a.crtrace -trace-format binary -trace-classes > /dev/null
	go run ./cmd/crtrace diff bin/trace-a.ndjson bin/trace-a.crtrace
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

# Mirror of CI's shard-smoke job: sharded runs (crshard over a local worker,
# crshard over two crserve daemons, and a run that loses a daemon and
# re-dispatches) must all be byte-identical to the unsharded crbench run.
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
