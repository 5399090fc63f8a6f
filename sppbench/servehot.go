package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/service"
)

// serveHotFuncs are the functions whose outputs are the cached bases.
// add6 is the one expensive class (its symmetric variables make the
// canonicalization tie-break costly); serveHotAdd6Every fixes its share.
var serveHotFuncs = []string{"max512", "prom2", "max1024", "newtpla2", "newcond", "amd", "add6"}

const (
	serveHotAdd6Every = 20
	serveHotClients   = 2
	// serveHotVariants is how many seeded permutations of each base the
	// op sequence draws from.
	serveHotVariants = 8
	// serveHotRate is the nominal op rate that turns --seconds into a
	// whole number of rounds.
	serveHotRate = 630
)

// serveHotAlgorithm is the request option every op and the priming run
// share, so every op's canonical key is a primed one.
const serveHotAlgorithm = `"algorithm":"sppk","k":0`

type shBase struct {
	bench    string
	out      int
	variants []shVariant
}

type shVariant struct {
	f        *bfunc.Func // the permuted function the request carries
	body     []byte
	literals int // #L of the primed answer
}

type shOp struct{ base, variant int }

// serveHot is two closed-loop clients sending permuted variants of the
// cached bases to Server.Handler in process. Set-up primes each base and
// each variant, so every op is a cache hit after canonicalization.
type serveHot struct {
	seed   int64
	secs   int
	rounds int
	cfg    service.Config
	h      http.Handler
	bases  []shBase
	seq    []shOp
	// replies per phase, by op position
	phases [][]reply
	canon  []time.Duration // traced phase: CanonicalizeCtx replay per op
	stats  statszDelta     // traced phase
	// sharedKeys counts variants whose priming request hit the base's
	// cache entry, i.e. canonicalized to the base's key.
	sharedKeys int
}

func newServeHot(seed int64, seconds int, trace bool) workload {
	return &serveHot{seed: seed, secs: seconds}
}

func (w *serveHot) config() map[string]any {
	return map[string]any{
		"callers":                   serveHotClients,
		"rounds":                    w.rounds,
		"ops":                       len(w.seq),
		"functions":                 serveHotFuncs,
		"add6_every":                serveHotAdd6Every,
		"variants":                  serveHotVariants,
		"variants_sharing_base_key": w.sharedKeys,
		"request":                   serveHotAlgorithm,
		"service.Config":            fmt.Sprintf("%+v", w.cfg),
	}
}

func (w *serveHot) setup() error {
	w.h = service.New(w.cfg).Handler()
	rng := rand.New(rand.NewSource(w.seed))
	for _, name := range serveHotFuncs {
		m, err := bench.Load(name)
		if err != nil {
			return err
		}
		for i, f := range m.Outputs {
			body := fmt.Sprintf(`{"bench":%q,"output":%d,%s}`, name, i, serveHotAlgorithm)
			status, resp, _, _ := post(w.h, []byte(body))
			if status != http.StatusOK {
				return fmt.Errorf("priming %s(%d): status %d %s", name, i, status, resp)
			}
			b := shBase{bench: name, out: i}
			for v := 0; v < serveHotVariants; v++ {
				pf := permute(f, rng.Perm(f.N()))
				mt, err := json.Marshal(mintermsOf(pf))
				if err != nil {
					return err
				}
				body := append(mt[:len(mt)-1:len(mt)-1], []byte(","+serveHotAlgorithm+"}")...)
				// Priming the variant records the #L it is answered with:
				// renaming the cached form into the variant's variable
				// order can change its literal count. It also keeps the
				// op a hit should canonicalization, past its tie-break
				// budget, map the variant to a key of its own.
				status, resp, _, _ := post(w.h, body)
				vr, err := reply{status: status, body: resp}.decode()
				if err != nil || status != http.StatusOK {
					return fmt.Errorf("priming %s(%d) variant %d: status %d %s", name, i, v, status, resp)
				}
				if vr.Cached {
					w.sharedKeys++
				}
				b.variants = append(b.variants, shVariant{f: pf, body: body, literals: vr.Literals})
			}
			w.bases = append(w.bases, b)
		}
	}
	w.seq = w.sequence(rng)
	if beyond(len(w.seq), 0.9) < minTail {
		return fmt.Errorf("%d ops leave fewer than %d samples beyond p90", len(w.seq), minTail)
	}
	return nil
}

// permute renames f's variables by perm.
func permute(f *bfunc.Func, perm []int) *bfunc.Func {
	n := f.N()
	mp := func(pts []uint64) []uint64 {
		out := make([]uint64, len(pts))
		for i, p := range pts {
			out[i] = bitvec.PermutePoint(p, n, perm)
		}
		return out
	}
	return bfunc.NewDC(n, mp(f.On()), mp(f.DC()))
}

// sequence builds the op sequence in rounds. In each block of
// serveHotAdd6Every ops one is an add6 output, at a seeded position; the
// rest deal the other bases from reshuffled decks. A round is the
// smallest number of blocks after which every deck is exhausted, so
// every round holds each base the same number of times and the mix
// (and literals_per_op) does not depend on the seed.
func (w *serveHot) sequence(rng *rand.Rand) []shOp {
	var heavy, light []int
	for i, b := range w.bases {
		if b.bench == "add6" {
			heavy = append(heavy, i)
		} else {
			light = append(light, i)
		}
	}
	per := serveHotAdd6Every - 1
	blocks := lcm(len(light)/gcd(len(light), per), len(heavy))
	w.rounds = max(1, int(math.Round(float64(w.secs)*serveHotRate/float64(blocks*serveHotAdd6Every))))
	deck := func(ids []int) func() int {
		var d []int
		return func() int {
			if len(d) == 0 {
				d = append(d, ids...)
				rng.Shuffle(len(d), func(a, b int) { d[a], d[b] = d[b], d[a] })
			}
			x := d[0]
			d = d[1:]
			return x
		}
	}
	nextHeavy, nextLight := deck(heavy), deck(light)
	var seq []shOp
	for r := 0; r < w.rounds*blocks; r++ {
		at := rng.Intn(serveHotAdd6Every)
		for k := 0; k < serveHotAdd6Every; k++ {
			b := 0
			if k == at {
				b = nextHeavy()
			} else {
				b = nextLight()
			}
			seq = append(seq, shOp{b, rng.Intn(serveHotVariants)})
		}
	}
	return seq
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

func (w *serveHot) run(tr *tracer) phaseResult {
	replies := make([]reply, len(w.seq))
	var before service.Statsz
	if tr != nil {
		w.canon = make([]time.Duration, len(w.seq))
		before, _ = statsz(w.h)
	}
	clients := make([][]int, serveHotClients)
	for c := range clients {
		clients[c] = positions(len(w.seq), c, serveHotClients)
	}
	ctx := context.Background()
	ph := timed(func() []time.Duration {
		return runClients(clients, func(_, i int) time.Duration {
			v := w.bases[w.seq[i].base].variants[w.seq[i].variant]
			if tr != nil {
				t0 := time.Now()
				fcache.CanonicalizeCtx(ctx, v.f)
				w.canon[i] = time.Since(t0)
			}
			status, body, start, end := post(w.h, v.body)
			replies[i] = reply{status, body, start, end}
			return end.Sub(start)
		})
	})
	w.phases = append(w.phases, replies)
	if tr != nil {
		after, err := statsz(w.h)
		if err != nil {
			panic(err)
		}
		w.stats = statszDelta{before, after}
		for i, r := range replies {
			resp, _ := r.decode()
			root := tr.addAt("op", i, -1, r.start.Add(-w.canon[i]), r.end)
			serviceSpans(tr, i, root, r, resp.ElapsedNS, []part{{"fcache.canon", w.canon[i].Nanoseconds()}})
		}
	}
	return ph
}

func (w *serveHot) check(t *tally) []string {
	var problems []string
	misses := 0
	for _, replies := range w.phases {
		for i, r := range replies {
			op := w.seq[i]
			b := w.bases[op.base]
			v := b.variants[op.variant]
			resp, err := r.decode()
			if err != nil {
				t.add(0, "", "", false, err)
				continue
			}
			var verr error
			if r.status == http.StatusOK {
				verr = verifyForm(resp.Form, v.f)
				if verr == nil && resp.Literals != v.literals {
					verr = fmt.Errorf("#L %d, priming gave %d", resp.Literals, v.literals)
				}
				if verr != nil {
					problems = append(problems, fmt.Sprintf("%s(%d) variant %d: %v", b.bench, b.out, op.variant, verr))
				}
				if !resp.Cached {
					misses++
				}
			}
			t.add(r.status, resp.Code, "", false, verr)
		}
	}
	if misses > 0 {
		problems = append(problems, fmt.Sprintf("%d requests missed the cache", misses))
	}
	return problems
}

// verifyForm parses a response form and checks it realizes f.
func verifyForm(src string, f *bfunc.Func) error {
	form, err := core.ParseForm(f.N(), src)
	if err != nil {
		return err
	}
	return form.Verify(f)
}

func (w *serveHot) literalsPerOp() float64 {
	total := 0
	for _, op := range w.seq {
		total += w.bases[op.base].variants[op.variant].literals
	}
	return float64(total) / float64(len(w.seq))
}

func (w *serveHot) layers(tr *tracer) map[string]metric {
	self, total := tr.layerTimes()
	m := emptyLayers()
	canon := millis(w.canon)
	m["fcache.canon.ms_per_op"] = metric{mean(canon), "ms"}
	m["fcache.canon.p90_ms"] = metric{percentile(canon, 0.9), "ms"}
	m["service.handler.ms_per_op"] = metric{mean(total["service.handler"]), "ms"}
	m["service.process.ms_per_op"] = metric{mean(total["service.process"]), "ms"}
	m["service.codec.ms_per_op"] = metric{mean(self["service.handler"]), "ms"}
	m["service.unattributed.ms_per_op"] = metric{mean(self["service.process"]), "ms"}
	w.stats.cacheLayers(m, len(w.seq))
	return m
}
