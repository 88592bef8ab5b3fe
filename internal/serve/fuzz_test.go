package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/arch"
	"repro/internal/loopnest"
	"repro/internal/specs"
	"repro/internal/yamlite"
)

// FuzzDecodeRequest feeds arbitrary bytes through the /v1/optimize
// boundary, decodeRequest then resolve, without solving anything. No
// input may panic; every rejection must be a typed 400 or 413 with a
// code; an accepted body must select exactly one of the named-layer and
// single-problem paths.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range []string{
		tinyConv,
		`{"conv": {"k": 8, "c": 8, "h": 4, "r": 2}, "trace": true, "events": true}`,
		tinyConv[:len(tinyConv)-1] + `, "specs": true}`,
		`{"layer": "resnet18_L1", "deadline_ms": 1}`,
		`{"layer": "resnet18_L11"}`,
		`{"layers": ["resnet18_L8", "resnet18_L11", "resnet18_L8"]}`,
		`{"pipeline": "resnet18"}`,
		// The docs/API.md example session.
		`{"layer": "resnet18_L12"}`,
		`{
    "conv": {"k": 64, "c": 32, "h": 56, "r": 3},
    "criterion": "edp", "mode": "codesign", "deadline_ms": 30000
  }`,
		`{"pipeline": "resnet18", "trace": true}`,
	} {
		f.Add([]byte(body))
	}
	for _, tc := range badRequests {
		f.Add([]byte(tc.body))
	}
	eyeriss := arch.Eyeriss()
	spec, err := json.Marshal(OptimizeRequest{
		ProblemYAML: yamlite.Encode(specs.FromProblem(loopnest.MatMul(8, 8, 8))),
		ArchYAML:    yamlite.Encode(specs.FromArch(&eyeriss)),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(spec)
	f.Fuzz(func(t *testing.T, body []byte) {
		r := httptest.NewRequest(http.MethodPost, "/v1/optimize", bytes.NewReader(body))
		req, aerr := decodeRequest(httptest.NewRecorder(), r)
		var wk *work
		if aerr == nil {
			wk, aerr = resolve(req)
		}
		if aerr != nil {
			if aerr.status != http.StatusBadRequest && aerr.status != http.StatusRequestEntityTooLarge {
				t.Fatalf("%q: rejected with status %d, want 400 or 413", body, aerr.status)
			}
			if aerr.Code == "" {
				t.Fatalf("%q: rejection %+v has no code", body, aerr)
			}
			return
		}
		if (len(wk.layers) > 0) == (wk.prob != nil) {
			t.Fatalf("%q: accepted with %d layers and problem %v, want exactly one", body, len(wk.layers), wk.prob)
		}
	})
}
