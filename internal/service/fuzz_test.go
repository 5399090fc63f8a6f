package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"
)

// FuzzMinimizeEnvelope posts fuzzed bodies to /v1/minimize on a
// WarmCache server: whatever a client sends, the service answers with a
// JSON object and a status other than 500, and never panics. Short
// timeouts keep an expensive function (a large bench, a dense PLA) from
// stalling the fuzzer: it answers 504, which is a client outcome.
func FuzzMinimizeEnvelope(f *testing.F) {
	cfg := testConfig()
	cfg.WarmCache = true
	cfg.DefaultTimeout = 100 * time.Millisecond
	cfg.MaxTimeout = 200 * time.Millisecond
	h := New(cfg).Handler()

	code, body := post(f, h, `{"n":3,"on":[1,2,4,7]}`)
	if code != http.StatusOK {
		f.Fatalf("seed request: status %d: %s", code, body)
	}
	base := decodeResp(f, body).BaseKey
	for _, seed := range []string{
		fmt.Sprintf(`{"base":%q,"remove":[7]}`, base),
		fmt.Sprintf(`{"base":%q,"remove":[7]}`, flipPermByte(base)),
		fmt.Sprintf(`{"base":%q,"remove":[7]}`, base[:64]),
		`{"n":3,"on":[1,2,4,7]}`,
		`{"n":4,"on":[1,3,5],"dc":[7],"timeout_ms":50,"stats":true}`,
		`{"bench":"adr4","output":1}`,
		`{"requests":[{"n":3,"on":[1,2]},{"n":4,"on":[3]}]}`,
		fmt.Sprintf(`{"base":%q,"add":[0],"remove":[1]}`, base),
		fmt.Sprintf(`{"base":%q,"dc_add":[3]}`, base),
		`{"n":3,"on":[1,2,4,7],"form":"auto"}`,
		`{"n":3,"on":[1,2,4,7],"form":"auto","accept_literals":4}`,
		`{"n":3,"on":[1,2,4,7],"algorithm":"sppk","k":1}`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		code, out := post(t, h, body)
		if code == http.StatusInternalServerError {
			t.Fatalf("500 for %q: %s", body, out)
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal([]byte(out), &obj); err != nil {
			t.Fatalf("status %d for %q: body is not a JSON object: %v\n%s", code, body, err, out)
		}
	})
}

// FuzzJobsEnvelope posts fuzzed bodies to /v1/jobs and long-polls
// fuzzed ids and wait_ms values at /v1/jobs/{id} on a server whose job
// tier journals into the target's temp dir. Whatever a client sends,
// both endpoints answer with a JSON object and a status other than 500,
// and never panic. An accepted submission is polled too, under the same
// wait_ms. Short job and poll timeouts keep an expensive job or a long
// poll (capped at MaxTimeout) from stalling the fuzzer.
func FuzzJobsEnvelope(f *testing.F) {
	cfg := testConfig()
	cfg.WarmCache = true
	cfg.JobsDir = f.TempDir()
	cfg.JobWorkers = 1
	cfg.JobTimeout = 100 * time.Millisecond
	cfg.MaxTimeout = 50 * time.Millisecond
	s := New(cfg)
	if _, err := s.StartJobs(); err != nil {
		f.Fatalf("StartJobs: %v", err)
	}
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.StopJobs(ctx); err != nil {
			f.Errorf("StopJobs: %v", err)
		}
	})
	h := s.Handler()

	code, body := post(f, h, `{"n":3,"on":[1,2,4,7]}`)
	if code != http.StatusOK {
		f.Fatalf("seed request: status %d: %s", code, body)
	}
	base := decodeResp(f, body).BaseKey
	for _, tok := range []string{base, flipPermByte(base), base[:64]} {
		f.Add(fmt.Sprintf(`{"base":%q,"add":[0],"remove":[1]}`, tok), "", "20")
	}
	f.Add(`{"priority":"interactive","n":3,"on":[1,2,4,7]}`, "", "20")
	f.Add(`{"requests":[{"n":3,"on":[1,2]},{"n":4,"on":[3]}]}`, "", "")
	f.Add(`{"n":3,"on":[1,2,4,7],"form":"nope"}`, "", "")
	f.Add(`{}`, "no-such-job", "10")
	f.Add(`{"n":3,"on":[1]}`, "no-such-job", "-5")
	f.Add(`{"n":3,"on":[1]}`, "", "99999999999999999999")
	f.Fuzz(func(t *testing.T, body, id, waitMS string) {
		requireJSONObject := func(what string, code int, out string) {
			t.Helper()
			if code == http.StatusInternalServerError {
				t.Fatalf("%s: 500: %s", what, out)
			}
			var obj map[string]json.RawMessage
			if err := json.Unmarshal([]byte(out), &obj); err != nil {
				t.Fatalf("%s: status %d: body is not a JSON object: %v\n%s", what, code, err, out)
			}
		}
		poll := func(id string) {
			// One path segment: ids with a slash or a dot segment never
			// reach the job handler, since the mux redirects them.
			id = strings.ReplaceAll(id, "/", "_")
			if id == "." || id == ".." {
				return
			}
			req := httptest.NewRequest(http.MethodGet, "/v1/jobs/", nil)
			req.URL.Path += id
			req.URL.RawQuery = url.Values{"wait_ms": {waitMS}}.Encode()
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			requireJSONObject(fmt.Sprintf("GET job %q wait_ms %q", id, waitMS), w.Code, w.Body.String())
		}

		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		requireJSONObject(fmt.Sprintf("POST %q", body), w.Code, w.Body.String())
		if w.Code == http.StatusAccepted {
			var st JobStatus
			if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || st.ID == "" {
				t.Fatalf("202 without a job id: %v\n%s", err, w.Body.String())
			}
			poll(st.ID)
		}
		poll(id)
	})
}

// flipPermByte returns a base_key with its last permutation byte
// changed: the low bit of its last hex digit flipped.
func flipPermByte(tok string) string {
	b := []byte(tok)
	b[len(b)-1] ^= 1
	return string(b)
}
