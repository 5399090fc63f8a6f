package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/bfunc"
	"repro/internal/service"
)

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer its workload never calls reads 0.
var layerUnits = map[string]string{
	"core.eppp.ms_per_op":               "ms",
	"core.eppp.allocs_per_op":           "count",
	"core.eppp.candidates_per_op":       "count",
	"core.cover.ms_per_op":              "ms",
	"core.cover.allocs_per_op":          "count",
	"core.cover.terms_per_op":           "count",
	"core.warm.eppp_ms_per_op":          "ms",
	"core.warm.cover_columns_ms_per_op": "ms",
	"core.warm.cover_greedy_ms_per_op":  "ms",
	"core.warm.cover_patch_ms_per_op":   "ms",
	"core.warm.cover_reused_ratio":      "ratio",
	"fcache.canon.ms_per_op":            "ms",
	"fcache.canon.p90_ms":               "ms",
	"fcache.hit_ratio":                  "ratio",
	"fcache.cache_mb":                   "MiB",
	"fcache.bytes_per_entry":            "B",
	"fcache.evictions_per_op":           "count",
	"service.handler.ms_per_op":         "ms",
	"service.process.ms_per_op":         "ms",
	"service.codec.ms_per_op":           "ms",
	"service.unattributed.ms_per_op":    "ms",
}

func emptyLayers() map[string]metric {
	m := make(map[string]metric, len(layerUnits))
	for n, u := range layerUnits {
		m[n] = metric{0, u}
	}
	return m
}

// post sends one in-process request to h and returns the status and
// body. The timed span is ServeHTTP alone: decode, process, encode.
func post(h http.Handler, body []byte) (status int, resp []byte, start, end time.Time) {
	req := httptest.NewRequest(http.MethodPost, "/v1/minimize", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start = time.Now()
	h.ServeHTTP(rec, req)
	end = time.Now()
	return rec.Code, rec.Body.Bytes(), start, end
}

func statsz(h http.Handler) (service.Statsz, error) {
	req := httptest.NewRequest(http.MethodGet, "/statsz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var st service.Statsz
	if rec.Code != http.StatusOK {
		return st, fmt.Errorf("/statsz: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return st, fmt.Errorf("/statsz: %w", err)
	}
	return st, nil
}

// minterms is the explicit-minterm request body fields of f.
type minterms struct {
	N  int      `json:"n"`
	On []uint64 `json:"on"`
	Dc []uint64 `json:"dc,omitempty"`
}

func mintermsOf(f *bfunc.Func) minterms { return minterms{f.N(), f.On(), f.DC()} }

// reply is one retained response, decoded after the timed phase.
type reply struct {
	status     int
	body       []byte
	start, end time.Time // the ServeHTTP span
}

func (r reply) decode() (service.Response, error) {
	var resp service.Response
	err := json.Unmarshal(r.body, &resp)
	return resp, err
}

// serviceSpans places the spans the service reports about itself under
// one traced request: service.handler is the measured ServeHTTP span,
// service.process is the response's elapsed_ns placed at its start, and
// parts are laid end to end inside process. The handler's self time is
// then the codec, and process's self time is the part no layer accounts
// for.
func serviceSpans(tr *tracer, op, root int, r reply, elapsedNS int64, parts []part) {
	h := tr.addAt("service.handler", op, root, r.start, r.end)
	ps := tr.ns(r.start)
	pe := min(ps+elapsedNS, tr.ns(r.end))
	p := tr.add("service.process", op, h, ps, pe)
	at := ps
	for _, pt := range parts {
		tr.add(pt.name, op, p, at, min(at+pt.ns, pe))
		at += pt.ns
	}
}

// part is a layer's share of a request's process time.
type part struct {
	name string
	ns   int64
}

// statszDelta is the cache and delta counter movement over a phase.
type statszDelta struct {
	before, after service.Statsz
}

func (d statszDelta) served() int64 { return d.after.Served - d.before.Served }

func (d statszDelta) ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// cacheLayers fills the fcache per-layer metrics from /statsz.
func (d statszDelta) cacheLayers(m map[string]metric, ops int) {
	m["fcache.hit_ratio"] = metric{d.ratio(d.after.CacheHits-d.before.CacheHits, d.served()), "ratio"}
	m["fcache.cache_mb"] = metric{float64(d.after.CacheBytes) / (1 << 20), "MiB"}
	m["fcache.bytes_per_entry"] = metric{d.ratio(d.after.CacheBytes, int64(d.after.CacheLen)), "B"}
	m["fcache.evictions_per_op"] = metric{d.ratio(d.after.CacheEvictions-d.before.CacheEvictions, int64(ops)), "count"}
}
