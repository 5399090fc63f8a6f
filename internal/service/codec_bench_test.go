package service

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/bitvec"
	"repro/internal/fcache"
)

// BenchmarkDecodeRequest times decoding a /v1/minimize body that
// carries its function as a minterm list: amd output 0's 1,332 ON
// points, a request the size of serve-hot's.
func BenchmarkDecodeRequest(b *testing.B) {
	f := bench.MustLoad("amd").Output(0)
	body := fmt.Sprintf(`{"n":%d,"on":%s,"algorithm":"sppk","k":0}`, f.N(), pointsJSON(f.On()))
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	for i := 0; i < b.N; i++ {
		if _, err := decodeEnvelope(strings.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

var renderSink Response

// BenchmarkRender times rendering a cached form into a permuted
// request's variable order: render maps the canonical-space form
// through the inverse permutation and prints it. The forms are the
// cached SPP_0 answers of amd output 0 and add6 output 3.
func BenchmarkRender(b *testing.B) {
	for _, c := range []struct {
		bench string
		out   int
	}{{"amd", 0}, {"add6", 3}} {
		s := New(testConfig())
		code, out := post(b, s.Handler(), fmt.Sprintf(`{"bench":%q,"output":%d,"algorithm":"sppk","k":0}`, c.bench, c.out))
		if code != 200 {
			b.Fatalf("%s(%d): status %d: %s", c.bench, c.out, code, out)
		}
		key, err := fcache.ParseKey(decodeResp(b, out).Key)
		if err != nil {
			b.Fatal(err)
		}
		e, ok := s.cache.Get(key)
		if !ok {
			b.Fatalf("%s(%d): answer not cached", c.bench, c.out)
		}
		f := bench.MustLoad(c.bench).Output(c.out)
		shuffle := rand.New(rand.NewSource(1)).Perm(f.N())
		on := make([]uint64, f.OnCount())
		for i, p := range f.On() {
			on[i] = bitvec.PermutePoint(p, f.N(), shuffle)
		}
		_, perm, _ := fcache.Canonicalize(bfunc.New(f.N(), on))
		inv := fcache.InversePerm(perm)
		b.Run(fmt.Sprintf("%s-%d", c.bench, c.out), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				renderSink = render(Request{}, e, inv, outcomeHit, nil)
			}
		})
	}
}
