package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/bench"
)

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// TestWarmHitAllocCeiling is the HTTP layers' load-independent gate on
// the warm cache's two hit paths, on a server seeded with m4(3): a
// repeated delta served from its resident state, and a full exact hit
// that advertises a base_key. Each request is counted whole through
// Handler, from the httptest request to the encoded response. A count
// is the fewest of three runs, as core's TestResumeAllocCeiling takes
// it, and each ceiling sits about 10% above the count measured: 317
// for the delta, 216 for the full hit.
func TestWarmHitAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts vary under the race detector")
	}
	s := New(warmConfig())
	h := s.Handler()
	f := bench.MustLoad("m4").Output(3)
	full := fmt.Sprintf(`{"n":%d,"on":%s,"dc":%s}`, f.N(), pointsJSON(f.On()), pointsJSON(f.DC()))
	code, body := post(t, h, full)
	if code != http.StatusOK {
		t.Fatalf("seed: status %d: %s", code, body)
	}
	base := decodeResp(t, body).BaseKey
	// A single swap: the first care-set-free point turns ON, the first
	// ON point turns OFF.
	add := uint64(0)
	for f.IsCare(add) {
		add++
	}
	delta := fmt.Sprintf(`{"base":%q,"add":[%d],"remove":[%d]}`, base, add, f.On()[0])
	if code, body := post(t, h, delta); code != http.StatusOK || decodeResp(t, body).Delta != "warm" {
		t.Fatalf("first delta: status %d: %s", code, body)
	}

	for _, c := range []struct {
		name, body string
		ceiling    float64
	}{
		{"repeated delta", delta, 349},
		{"full exact hit", full, 238},
	} {
		code, body := post(t, h, c.body)
		if r := decodeResp(t, body); code != http.StatusOK || !r.Cached || r.BaseKey == "" {
			t.Fatalf("%s: status %d, want a cache hit with a base_key: %s", c.name, code, body)
		}
		serve := func() {
			req := httptest.NewRequest(http.MethodPost, "/v1/minimize", strings.NewReader(c.body))
			h.ServeHTTP(httptest.NewRecorder(), req)
		}
		allocs := testing.AllocsPerRun(10, serve)
		for range 2 {
			allocs = min(allocs, testing.AllocsPerRun(10, serve))
		}
		t.Logf("%s: %.0f allocations per request", c.name, allocs)
		if allocs > c.ceiling {
			t.Errorf("%s allocates %.0f times per request, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}
