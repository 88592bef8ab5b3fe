// Command servecheck is the check.sh e2e harness for thistled: it
// starts the daemon on a random port, POSTs a small optimize request,
// saves the returned manifest (so the caller can tlreport-diff it
// against a CLI run of the same layer), asserts that a repeated request
// is served from the shared cache, verifies the request-ID join (the
// X-Request-ID the client sent must reappear verbatim in the response
// header, the manifest, the Chrome trace, and the access log), probes
// the health and telemetry surface (/v1/healthz, /metrics, /statusz),
// and finally SIGTERMs the daemon expecting a clean graceful-drain exit.
//
//	servecheck <thistled-binary> <outdir>
//
// On success the returned manifest is written to
// <outdir>/server.manifest.json and the process exits 0; any protocol,
// determinism, or shutdown violation exits 1 with a diagnostic.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: servecheck <thistled-binary> <outdir>")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2]); err != nil {
		fmt.Fprintln(os.Stderr, "servecheck:", err)
		os.Exit(1)
	}
}

func run(binary, outdir string) error {
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	accessLog := filepath.Join(outdir, "access.log")
	cmd := exec.Command(binary, "-addr", "127.0.0.1:0", "-cache", "-v", "warn",
		"-spool-dir", filepath.Join(outdir, "spool"),
		"-access-log", accessLog)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	// On any failure path, make sure the daemon does not outlive us.
	defer func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_, _ = cmd.Process.Wait()
		}
	}()

	// The daemon announces its resolved address on stderr before it
	// starts serving; everything after that line is passed through.
	sc := bufio.NewScanner(stderr)
	var base string
	for sc.Scan() {
		line := sc.Text()
		if addr, ok := strings.CutPrefix(line, "thistled: serving on "); ok {
			base = strings.TrimSpace(addr)
			break
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if base == "" {
		return fmt.Errorf("daemon exited without announcing its address (scan error: %v)", sc.Err())
	}
	go func() { // keep draining stderr so the daemon never blocks on it
		for sc.Scan() {
		}
	}()

	post := func(body, reqID string) (*http.Response, []byte, error) {
		req, err := http.NewRequest("POST", base+"/v1/optimize", strings.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if reqID != "" {
			req.Header.Set("X-Request-ID", reqID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, nil, err
		}
		data, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		return resp, data, err
	}

	// The first request carries a client request ID and asks for a trace,
	// so the ID join (header echo → manifest → trace) can be verified.
	const clientReqID = "servecheck-req-1"
	resp, data, err := post(`{"layer": "resnet18_L12", "trace": true}`, clientReqID)
	if err != nil {
		return fmt.Errorf("POST /v1/optimize: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("optimize status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Request-ID"); got != clientReqID {
		return fmt.Errorf("X-Request-ID echoed as %q, want %q", got, clientReqID)
	}
	var out struct {
		RunID    string            `json:"run_id"`
		Results  []json.RawMessage `json:"results"`
		Manifest json.RawMessage   `json:"manifest"`
		Trace    json.RawMessage   `json:"trace"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return fmt.Errorf("decoding optimize response: %w", err)
	}
	if out.RunID == "" || len(out.Results) != 1 || len(out.Manifest) == 0 {
		return fmt.Errorf("incomplete optimize response: %s", data)
	}
	var manifest struct {
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(out.Manifest, &manifest); err != nil {
		return fmt.Errorf("decoding manifest: %w", err)
	}
	if manifest.RequestID != clientReqID {
		return fmt.Errorf("manifest request_id %q, want %q", manifest.RequestID, clientReqID)
	}
	var trace struct {
		OtherData struct {
			RequestID string `json:"request_id"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(out.Trace, &trace); err != nil {
		return fmt.Errorf("decoding trace: %w", err)
	}
	if trace.OtherData.RequestID != clientReqID {
		return fmt.Errorf("trace otherData.request_id %q, want %q", trace.OtherData.RequestID, clientReqID)
	}
	manPath := filepath.Join(outdir, "server.manifest.json")
	if err := os.WriteFile(manPath, append(out.Manifest, '\n'), 0o644); err != nil {
		return err
	}

	// A repeated request must be a cache hit: fresh_solves drops to 0.
	resp, data, err = post(`{"layer": "resnet18_L12"}`, "")
	if err != nil {
		return fmt.Errorf("second POST /v1/optimize: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("second optimize status %d: %s", resp.StatusCode, data)
	}
	var second struct {
		Results []struct {
			FromCache bool `json:"from_cache"`
		} `json:"results"`
	}
	if err := json.Unmarshal(data, &second); err != nil {
		return fmt.Errorf("decoding second response: %w", err)
	}
	if len(second.Results) != 1 || !second.Results[0].FromCache {
		return fmt.Errorf("repeated request not served from the shared cache: %s", data)
	}

	// Health and telemetry surface: healthz says ok, metrics exposes the
	// serve.* families, statusz reports the serving state.
	if err := expectGet(base+"/v1/healthz", "ok"); err != nil {
		return err
	}
	if err := expectGet(base+"/metrics", "thistle_serve_requests_total"); err != nil {
		return err
	}
	if err := expectGet(base+"/statusz", "thistled serving"); err != nil {
		return err
	}

	// The access log must hold a line for the identified request: the
	// same ID the client sent, joined to the run.
	logData, err := os.ReadFile(accessLog)
	if err != nil {
		return fmt.Errorf("reading access log: %w", err)
	}
	if !strings.Contains(string(logData), clientReqID) {
		return fmt.Errorf("access log %s has no line for request %q:\n%s", accessLog, clientReqID, logData)
	}

	// Graceful drain: SIGTERM must produce a clean exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon did not exit cleanly on SIGTERM: %w", err)
		}
	case <-time.After(30 * time.Second):
		return fmt.Errorf("daemon did not exit within 30s of SIGTERM")
	}
	fmt.Println("servecheck: ok (manifest at", manPath+")")
	return nil
}

func expectGet(url, needle string) error {
	resp, err := http.Get(url)
	if err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if !strings.Contains(string(data), needle) {
		return fmt.Errorf("GET %s: response missing %q:\n%s", url, needle, data)
	}
	return nil
}
