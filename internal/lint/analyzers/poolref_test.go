package analyzers_test

import (
	"testing"

	"kite/internal/lint/analyzers"
)

func TestPoolref(t *testing.T) {
	runFixture(t, "kite/fixtures/poolref", "testdata/src/poolref", analyzers.Poolref)
}
