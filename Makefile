GO ?= go

.PHONY: verify build test race vet lint audit zeroalloc bench

# verify is the tree-must-be-green gate: vet, build everything, kitelint
# (the repo's own invariant analyzers), the zero-allocation forward-path
# assertion (which the race detector's instrumentation would distort, so
# it runs in a normal build), then the full test suite under the race
# detector (which also exercises the parallel experiment runner's
# determinism tests).
verify: vet build lint zeroalloc race

vet:
	$(GO) vet ./...

# lint runs the kitelint analyzer suite (hotpath, poolref, simdet) over
# the whole module; any finding fails the build. See
# DESIGN.md §11 for what each analyzer catches that no test does.
lint:
	$(GO) run ./cmd/kitelint .

# audit is the slow half of kitelint's mutation audit (DESIGN.md §11): each
# row of internal/lint/mutations_test.go is seeded alone in a scratch copy
# of the module and the whole test suite runs on it, under -race too where
# the row asks. Tens of minutes; run it by hand when an analyzer, a rule or
# a row changes. It is not part of verify or CI.
audit:
	$(GO) test -tags audit -count=1 -timeout 4h -run TestAuditMutations -v ./internal/lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

zeroalloc:
	$(GO) test -count=1 -run 'TestForwardPathZeroAlloc|TestBlockPathZeroAlloc' ./internal/core

# bench snapshots the forward-path pipeline benchmarks into BENCH_net.json
# (frames per second, the multi-queue simframes/sec sweep over
# -queues 1,2,4,8, and the fleet sweep over -guests 16,64,256,1024) and
# the storage pipeline benchmarks into BENCH_blk.json (bytes per second
# plus the matching simbytes/sec sweep). Each go-test run lands in a temp
# file first: in a pipeline a benchmark failure would be swallowed by the
# pipe (make only sees the last command's status) while still truncating
# the committed snapshot. Every step removes its temp files on failure so
# an aborted run leaves no droppings in the tree. The fleet family runs a
# fixed iteration count (handshaking 1024 guests per calibration pass
# would dominate the run), is gated allocation-free at every scale, and
# must keep 1024-guest virtual per-guest cost within 1.25x the 64-guest
# figure (the O(active) flatness gate; see EXPERIMENTS.md).
bench:
	$(GO) test -run '^$$' -bench 'BenchmarkForwardPath' -benchmem -count=1 ./internal/core > bench_net.tmp || { rm -f bench_net.tmp; exit 1; }
	$(GO) test -run '^$$' -bench 'BenchmarkFleet' -benchtime 50x -benchmem -count=1 ./internal/core >> bench_net.tmp || { rm -f bench_net.tmp; exit 1; }
	$(GO) run ./cmd/benchjson \
		-gate-allocs 'BenchmarkFleet/guests=16,BenchmarkFleet/guests=64,BenchmarkFleet/guests=256,BenchmarkFleet/guests=1024' \
		-gate-flat 'Fleet/guests=1024:Fleet/guests=64@1.25' \
		< bench_net.tmp > BENCH_net.json.tmp || { rm -f bench_net.tmp BENCH_net.json.tmp; exit 1; }
	mv BENCH_net.json.tmp BENCH_net.json
	rm bench_net.tmp
	cat BENCH_net.json
	$(GO) test -run '^$$' -bench 'BenchmarkBlockPath' -benchmem -count=1 ./internal/core > bench_blk.tmp || { rm -f bench_blk.tmp; exit 1; }
	$(GO) run ./cmd/benchjson < bench_blk.tmp > BENCH_blk.json.tmp || { rm -f bench_blk.tmp BENCH_blk.json.tmp; exit 1; }
	mv BENCH_blk.json.tmp BENCH_blk.json
	rm bench_blk.tmp
	cat BENCH_blk.json
