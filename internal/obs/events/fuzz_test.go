package events

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/obs"
)

// FuzzValidate feeds Validate arbitrary bytes: tlreport validate and
// API clients hand it streams from outside. It must never panic, and
// every rejection must be an ErrBadStream or a read error naming its
// line. An accepted stream's summary must be consistent.
func FuzzValidate(f *testing.F) {
	var lifecycle bytes.Buffer
	e := NewEmitter(&lifecycle)
	emitLifecycle(e)
	if err := e.Close(); err != nil {
		f.Fatal(err)
	}
	f.Add(lifecycle.Bytes())
	f.Add([]byte(unknownTypeStream))
	for _, s := range badStreams {
		f.Add([]byte(s))
	}
	// The recorded run's first and last lines keep the seed small.
	data, err := os.ReadFile(fixture)
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	f.Add([]byte(strings.Join(lines[:10], "") + strings.Join(lines[len(lines)-3:], "")))

	f.Fuzz(func(t *testing.T, data []byte) {
		sum, err := Validate(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrBadStream) &&
				!(strings.HasPrefix(err.Error(), "events: line ") && errors.Unwrap(err) != nil) {
				t.Fatalf("rejection is neither ErrBadStream nor a line-numbered read error: %v", err)
			}
			return
		}
		n := 0
		for _, c := range sum.ByType {
			n += c
		}
		if sum.Events == 0 || n != sum.Events || sum.ByType[obs.EvRunStart] == 0 {
			t.Fatalf("inconsistent summary %+v", sum)
		}
	})
}
