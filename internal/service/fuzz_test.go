package service

import (
	"encoding/json"
	"fmt"
	"net/http"
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
