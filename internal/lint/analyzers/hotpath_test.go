package analyzers_test

import (
	"testing"

	"kite/internal/lint/analyzers"
)

func TestHotpath(t *testing.T) {
	runFixture(t, "kite/fixtures/hotpath", "testdata/src/hotpath", analyzers.Hotpath)
}
