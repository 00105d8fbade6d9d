package main

import (
	"os"
	"strings"
	"testing"
)

// TestOutputPinned holds kitesec's whole default output (every section,
// -loc off) byte-for-byte to testdata/kitesec.txt: the syscall inventories,
// Fig 1a, Table 3, the toolstack CVEs and both gadget tables of Figs 1b/5.
func TestOutputPinned(t *testing.T) {
	var got strings.Builder
	run(&got, true, true, true)
	want, err := os.ReadFile("testdata/kitesec.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("kitesec output differs from testdata/kitesec.txt\ngot:\n%s\nwant:\n%s", got.String(), want)
	}
}
