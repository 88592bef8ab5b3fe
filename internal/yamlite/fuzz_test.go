package yamlite

import (
	"errors"
	"testing"
)

// FuzzParse feeds arbitrary bytes to Parse, which reads the untrusted
// problem_yaml and arch_yaml bodies of thistled's /v1/optimize. Parse
// must never panic, must fail only with ErrParse, and whatever it
// accepts must survive Encode: Parse(Encode(n)) is Equal to n.
//
//	go test -fuzz=FuzzParse -fuzztime=10s ./internal/yamlite
//
// Crashers land in testdata/fuzz/FuzzParse and rerun with go test.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		docScalars, docNested, docComments, docSeqOfScalars, docDashAlone,
		docEmpty, docAccessors, docTimeloopSpec,
	} {
		f.Add(src)
	}
	for _, src := range badDocs {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		n, err := Parse(src)
		if err != nil {
			if !errors.Is(err, ErrParse) {
				t.Fatalf("Parse(%q) = %v, not an ErrParse", src, err)
			}
			return
		}
		out := Encode(n)
		back, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) ok, but its encoding does not parse: %v\n%s", src, err, out)
		}
		if !Equal(n, back) {
			t.Fatalf("Parse(%q) does not survive Encode:\n%s", src, out)
		}
	})
}
