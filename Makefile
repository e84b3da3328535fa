GO ?= go

.PHONY: build test allocs race race-lockfree vet fmt bench bench-telemetry bench-json bench-gate chaos check conformance lint-layers tcp-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Allocation budgets of the eager hot path: CRI acquire/release and a
# progress pass allocate nothing, a steady-state eager window at most two
# objects per message, and the TCP frame reader one buffer per connection.
# The tests skip themselves under -race (its instrumentation allocates), so
# this target runs them without it.
allocs:
	$(GO) test -count=1 -run Allocat ./internal/cri ./internal/progress ./internal/core ./internal/transport/tcpnet

# Race-detector pass over the concurrency-heavy packages (the full suite
# under -race works too, but takes much longer).
race:
	$(GO) test -race ./internal/prof ./internal/telemetry ./internal/core ./internal/progress ./internal/cri ./internal/trace ./internal/rma ./internal/flight ./internal/obs ./internal/transport/... ./internal/conformance ./internal/bench/... ./internal/ringbuf ./internal/match

# Dedicated stress pass over the lock-free structures (MPSC completion
# ring, CRI free-list, sharded matching) at high parallelism; these tests
# only bite with the race detector watching.
race-lockfree:
	$(GO) test -race -count=2 ./internal/ringbuf ./internal/match ./internal/cri

# Cross-backend conformance: the same message-passing semantics over the
# simulated fabric and real TCP, under the race detector.
conformance:
	$(GO) test -run Conformance -race ./internal/conformance

# Layering lint: the runtime depends only on the transport interface; a
# textual import of the simulated backend above it is a regression.
lint-layers:
	@if grep -rn '"repro/internal/fabric"' internal/core internal/cri internal/progress internal/rma internal/match; then \
		echo "FAIL: concrete backend import above the transport interface"; exit 1; \
	else echo "layering ok"; fi

# Two OS processes exchanging the pairwise benchmark over loopback TCP.
tcp-smoke:
	./scripts/tcp_smoke.sh

vet:
	$(GO) vet ./...

fmt:
	gofmt -l .

bench:
	$(GO) test -bench=. -benchmem ./...

# Proves the disabled telemetry hooks cost ~1 ns and zero allocations.
bench-telemetry:
	$(GO) test -bench=. -benchmem ./internal/telemetry

# Machine-readable benchmark trajectory: message rate per thread count per
# design, swept on the deterministic virtual-time model so the numbers are
# reproducible on any host. Override the sweep for a quick smoke run:
#   make bench-json BENCHJSON_FLAGS="-threads 1,2,4 -window 32 -iters 2"
BENCHJSON_FLAGS ?=
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_4.json $(BENCHJSON_FLAGS)
	$(GO) run ./cmd/benchjson -validate BENCH_4.json
	$(GO) run ./cmd/benchjson -o BENCH_4_latency.json -latency $(BENCHJSON_FLAGS)
	$(GO) run ./cmd/benchjson -validate BENCH_4_latency.json

# Regression gate: regenerate the deterministic trajectory and compare it
# point by point against the committed BENCH_4.json with noise-aware
# per-(design, threads) tolerances; exits nonzero if any point regressed.
# The latency trajectory additionally gates per-stage critical-path p99s:
# a tail regression inside one stage trips CI even when rates are flat.
# Also emits the contention profiler's virtual-time phase breakdowns for the
# serial and concurrent progress engines as artifacts.
bench-gate:
	$(GO) run ./cmd/multirate -pairs 8 -progress serial -breakdown-out breakdown_serial.json > /dev/null
	$(GO) run ./cmd/multirate -pairs 8 -instances 8 -assignment dedicated -comm-per-pair \
		-progress concurrent -breakdown-out breakdown_concurrent.json > /dev/null
	$(GO) run ./cmd/benchjson -o BENCH_head.json
	$(GO) run ./cmd/benchcmp -json bench_deltas.json BENCH_4.json BENCH_head.json
	$(GO) run ./cmd/benchjson -o BENCH_head_latency.json -latency
	$(GO) run ./cmd/benchcmp -json bench_deltas_latency.json BENCH_4_latency.json BENCH_head_latency.json

# Fault-injection and teardown chaos: the reliability layer repairing a
# lossy, duplicating, reordering wire, communicator free with packets still
# in flight, and a seeded faulty benchmark run — all under the race detector.
# The faulty run flies with the recorder and watchdog armed and leaves its
# flight-record dump as a triage artifact; a deterministic virtual-time
# stall then proves the watchdog names the stalled site.
chaos:
	$(GO) test -race -run 'Fault|Chaos|FreeComm|PeerUnreachable|Reliable|Duplicate|Watchdog|Flight' ./internal/fabric ./internal/core ./internal/match ./internal/simnet
	$(GO) run ./cmd/multirate -engine real -pairs 4 -window 32 -iters 4 \
		-fault-drop 0.01 -fault-dup 0.01 -fault-delay 0.02 -fault-seed 7 -spcs \
		-watchdog -flight-out flight_chaos.json
	$(GO) run ./cmd/multirate -engine sim -pairs 1 -window 64 -iters 4 \
		-flight 2048 -watchdog -stall 2s -stall-at 2 -flight-out flight_sim_stall.json

check: build vet lint-layers test race conformance
