GO ?= go

.PHONY: verify build test race vet lint audit zeroalloc layout

# verify is the tree-must-be-green gate: vet, build everything, kitelint
# (the repo's own invariant analyzers), the zero-allocation forward-path
# assertion and the size-class pins of the grant table and page-header
# slabs (which the race detector's instrumentation would distort, so they
# run in a normal build), then the full test suite under the race
# detector (which also exercises the parallel experiment runner's
# determinism tests).
verify: vet build lint zeroalloc layout race

vet:
	$(GO) vet ./...

# lint runs the kitelint analyzer suite (hotpath, poolref, simdet) over
# the whole module; any finding fails the build. See
# DESIGN.md §14 for what each analyzer catches that no test does.
lint:
	$(GO) run ./cmd/kitelint .

# audit is the slow half of kitelint's mutation audit (DESIGN.md §14): each
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

layout:
	$(GO) test -count=1 -run 'TestSlabClass|TestCarvingCostsHeadersOnly|TestGrantTableClass' ./internal/mem ./internal/xen
