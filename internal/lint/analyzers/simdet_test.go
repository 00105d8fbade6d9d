package analyzers_test

import (
	"testing"

	"kite/internal/lint/analyzers"
)

// The fixture is registered under internal/: simdet's scope is the import
// path, not an annotation.
func TestSimdet(t *testing.T) {
	runFixture(t, "kite/internal/fixtures/simdet", "testdata/src/simdet", analyzers.Simdet)
}
