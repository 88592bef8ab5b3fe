package main

import (
	"bytes"
	"os"
	"testing"
)

// TestGoldenOutput byte-compares the example's output with
// testdata/stdout.golden, so a change to the deep-hierarchy optimizer
// that moves any printed design or figure shows. Regenerate it, when a
// change is meant to move the design, with
//
//	go run ./examples/deephierarchy > examples/deephierarchy/testdata/stdout.golden
func TestGoldenOutput(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output differs from testdata/stdout.golden:\n--- got\n%s--- want\n%s", got.Bytes(), want)
	}
}
