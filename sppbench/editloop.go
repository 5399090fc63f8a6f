package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/bench"
	"repro/internal/bfunc"
	"repro/internal/core"
	"repro/internal/fcache"
	"repro/internal/harness"
	"repro/internal/service"
)

// editLoopBases are the chain bases: outputs whose warm states are
// 2-5 MB, so that every delta costs 2-6 ms and p50 and p90 fall inside
// one population. The heavier outputs of the same functions (21-26 MB
// states, ~50 ms deltas) made throughput swing with the host's memory
// contention.
var editLoopBases = []struct {
	bench string
	out   int
}{
	{"m4", 3}, {"max512", 1}, {"mlp4", 2}, {"ex5", 0},
	{"dist", 1}, {"m4", 0}, {"m3", 4}, {"mlp4", 1},
}

const (
	// editLoopRate is the nominal op rate that turns --seconds into a
	// step count.
	editLoopRate = 150
	// editLoopCacheBytes is the cache's byte budget: three times the
	// chains' live warm states, so that one round-robin pass over the
	// chains never evicts a live state but the warm-up still fills the
	// cache and evicts.
	editLoopCacheBytes = 96 << 20
	// editLoopWarmup is how many untimed steps each chain takes in set-up
	// so that the cache reaches its budget and evicts before timing.
	editLoopWarmup = 24
	// editLoopOracle is how many seeded steps are recomputed cold after
	// the timed phase and compared byte for byte.
	editLoopOracle = 8
	// editLoopDrift bounds how many swaps a chain's function may differ
	// from its base by. Small, so that a step's cost depends on the base
	// more than on the seed's particular edits.
	editLoopDrift = 1
)

// edit is one delta step: one OFF point turned ON, one ON point OFF.
type edit struct{ add, remove uint64 }

// chain is one edit chain on one base function.
type chain struct {
	bench string
	out   int
	base  *bfunc.Func
	edits []edit   // every step, warm-up included
	keys  []string // base_key after each step; keys[0] from the cold submit
	// replies by step (warm-up steps stay zero)
	replies []reply
	// phase of each step: -1 warm-up, else the timed phase index
	phase []int
}

// editLoop is one closed-loop caller round-robining single-swap delta
// requests over eight chains against a warm-cache server. One caller,
// because each warm resume already runs Workers = GOMAXPROCS goroutines:
// a second caller would put four busy goroutines on two CPUs.
type editLoop struct {
	seed   int64
	steps  int // timed steps per chain per phase
	phases int
	cfg    service.Config
	h      http.Handler
	chains []*chain
	stats  statszDelta // traced phase
}

func newEditLoop(seed int64, seconds int, trace bool) workload {
	steps := max(14, int(math.Round(float64(seconds*editLoopRate)/float64(len(editLoopBases)))))
	phases := 1
	if trace {
		phases = 2
	}
	// One cache shard: with the default two, hash placement can put most
	// of the large warm states in one shard, whose half of the byte
	// budget then evicts a chain's live state (a 409) in favour of
	// superseded ones touched more recently.
	cfg := service.Config{WarmCache: true, CacheShards: 1, CacheBytes: editLoopCacheBytes}
	return &editLoop{seed: seed, steps: steps, phases: phases, cfg: cfg}
}

func (w *editLoop) config() map[string]any {
	return map[string]any{
		"callers":         1,
		"chains":          len(w.chains),
		"steps_per_chain": w.steps,
		"warmup_steps":    editLoopWarmup,
		"bases":           fmt.Sprint(editLoopBases),
		"oracle_samples":  editLoopOracle,
		"service.Config":  fmt.Sprintf("%+v", w.cfg),
	}
}

func (w *editLoop) setup() error {
	w.h = service.New(w.cfg).Handler()
	rng := rand.New(rand.NewSource(w.seed))
	total := editLoopWarmup + w.steps*w.phases
	for _, b := range editLoopBases {
		m, err := bench.Load(b.bench)
		if err != nil {
			return err
		}
		ch := &chain{bench: b.bench, out: b.out, base: m.Output(b.out)}
		ch.edits = swaps(rng, ch.base, total)
		ch.replies = make([]reply, total)
		ch.phase = make([]int, total)
		w.chains = append(w.chains, ch)
	}
	err := w.each(func(ch *chain) error {
		body, err := json.Marshal(mintermsOf(ch.base))
		if err != nil {
			return err
		}
		status, resp, _, _ := post(w.h, body)
		r, err := reply{status: status, body: resp}.decode()
		if err != nil || status != http.StatusOK || r.BaseKey == "" {
			return fmt.Errorf("cold submit %s(%d): status %d %s", ch.bench, ch.out, status, resp)
		}
		ch.keys = append(ch.keys, r.BaseKey)
		return nil
	})
	if err != nil {
		return err
	}
	// Warm-up steps fill the cache to its budget.
	for s := 0; s < editLoopWarmup; s++ {
		err := w.each(func(ch *chain) error {
			r := w.step(ch, s)
			ch.phase[s] = -1
			if r.status != http.StatusOK {
				return fmt.Errorf("warm-up %s(%d) step %d: status %d %s", ch.bench, ch.out, s, r.status, r.body)
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	st, err := statsz(w.h)
	if err != nil {
		return err
	}
	if st.CacheEvictions == 0 {
		return fmt.Errorf("cache never reached its budget in %d warm-up steps per chain (%d entries, %d bytes)",
			editLoopWarmup, st.CacheLen, st.CacheBytes)
	}
	if beyond(w.steps*len(w.chains), 0.9) < minTail {
		return fmt.Errorf("%d ops leave fewer than %d samples beyond p90", w.steps*len(w.chains), minTail)
	}
	return nil
}

// each runs fn on every chain in order and returns the first error.
func (w *editLoop) each(fn func(*chain) error) error {
	for _, ch := range w.chains {
		if err := fn(ch); err != nil {
			return err
		}
	}
	return nil
}

// swaps pregenerates n seeded single-swap edits of f: each turns an OFF
// point ON and an ON point OFF, both at random. Once the edited function
// is editLoopDrift swaps away from f, a step that would move further
// takes back one side of an earlier swap instead, so a chain stays near
// its base and the cost of a step neither grows with run length nor
// swings with the seed.
func swaps(rng *rand.Rand, f *bfunc.Func, n int) []edit {
	on := append([]uint64(nil), f.On()...)
	at := map[uint64]int{} // position in on
	inBase := map[uint64]bool{}
	for i, p := range on {
		at[p] = i
		inBase[p] = true
	}
	dc := map[uint64]bool{}
	for _, p := range f.DC() {
		dc[p] = true
	}
	// added are ON now but not in f; removed are ON in f but not now.
	// Every swap keeps the two the same size.
	var added, removed []uint64
	space := uint64(1) << uint(f.N())
	out := make([]edit, n)
	// A chain never returns to a function it has had: the service would
	// answer from its cache with a base_key whose warm state may be gone.
	// hash is a Zobrist hash of the current ON set.
	hash := uint64(0)
	visited := map[uint64]bool{hash: true}
	for i := range out {
		var add, rem uint64
		for try := 0; try == 0 || (visited[hash^mix(add)^mix(rem)] && try < 100); try++ {
			for {
				add = uint64(rng.Int63n(int64(space)))
				if _, isOn := at[add]; !isOn && !dc[add] {
					break
				}
			}
			rem = on[rng.Intn(len(on))]
			if len(added) >= editLoopDrift && !inBase[add] && inBase[rem] {
				// A move away from the base: take back one earlier swap
				// on one side instead, keeping the function
				// editLoopDrift swaps away.
				if rng.Intn(2) == 0 {
					add = removed[rng.Intn(len(removed))]
				} else {
					rem = added[rng.Intn(len(added))]
				}
			}
		}
		hash ^= mix(add) ^ mix(rem)
		visited[hash] = true
		j := at[rem]
		on[j] = add
		delete(at, rem)
		at[add] = j
		if inBase[add] {
			removed = without(removed, add)
		} else {
			added = append(added, add)
		}
		if inBase[rem] {
			removed = append(removed, rem)
		} else {
			added = without(added, rem)
		}
		out[i] = edit{add, rem}
	}
	return out
}

// mix is the splitmix64 finalizer: a point's Zobrist key.
func mix(p uint64) uint64 {
	p += 0x9e3779b97f4a7c15
	p = (p ^ p>>30) * 0xbf58476d1ce4e5b9
	p = (p ^ p>>27) * 0x94d049bb133111eb
	return p ^ p>>31
}

// without removes the first occurrence of p from s, not keeping order.
func without(s []uint64, p uint64) []uint64 {
	for i, q := range s {
		if q == p {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

// step sends chain ch's delta request number s on the last base_key.
func (w *editLoop) step(ch *chain, s int) reply {
	e := ch.edits[s]
	body := fmt.Sprintf(`{"base":%q,"add":[%d],"remove":[%d]%s}`, ch.keys[len(ch.keys)-1], e.add, e.remove, w.statsFlag(ch, s))
	status, resp, start, end := post(w.h, []byte(body))
	r := reply{status, resp, start, end}
	ch.replies[s] = r
	key := baseKey(status, resp)
	if status == http.StatusConflict {
		// The base is gone: re-submit the edited function in full, as a
		// cold_run_required answer asks, and chain on from its key. The
		// step still counts as failed.
		f := ch.base
		for _, e := range ch.edits[:s+1] {
			f = applyEdit(f, e)
		}
		if mt, err := json.Marshal(mintermsOf(f)); err == nil {
			st, resp, _, _ := post(w.h, mt)
			key = baseKey(st, resp)
		}
	}
	if key == "" {
		key = ch.keys[len(ch.keys)-1] // retry the same base on the next step
	}
	ch.keys = append(ch.keys, key)
	return r
}

// baseKey is the base_key of a successful response, "" otherwise.
func baseKey(status int, resp []byte) string {
	var kr struct {
		BaseKey string `json:"base_key"`
	}
	if status != http.StatusOK || json.Unmarshal(resp, &kr) != nil {
		return ""
	}
	return kr.BaseKey
}

// statsFlag asks for the stats report on traced-phase steps.
func (w *editLoop) statsFlag(ch *chain, s int) string {
	if w.phases == 2 && s >= editLoopWarmup+w.steps {
		return `,"stats":true`
	}
	return ""
}

func (w *editLoop) run(tr *tracer) phaseResult {
	phase := 0
	if tr != nil {
		phase = 1
	}
	first := editLoopWarmup + phase*w.steps
	// Round-robin over the chains, step by step.
	var ops [][2]int // chain, step
	for s := first; s < first+w.steps; s++ {
		for ci := range w.chains {
			ops = append(ops, [2]int{ci, s})
		}
	}
	var before service.Statsz
	if tr != nil {
		before, _ = statsz(w.h)
	}
	ph := timed(func() []time.Duration {
		return runClients([][]int{positions(len(ops), 0, 1)}, func(_, i int) time.Duration {
			ch, s := w.chains[ops[i][0]], ops[i][1]
			ch.phase[s] = phase
			r := w.step(ch, s)
			return r.end.Sub(r.start)
		})
	})
	if tr != nil {
		after, err := statsz(w.h)
		if err != nil {
			panic(err)
		}
		w.stats = statszDelta{before, after}
		for i, o := range ops {
			r := w.chains[o[0]].replies[o[1]]
			resp, _ := r.decode()
			var parts []part
			if resp.Stats != nil {
				for _, p := range resp.Stats.Phases {
					if name, ok := warmPhases[p.Phase]; ok {
						parts = append(parts, part{name, int64(p.Seconds * 1e9)})
					}
				}
			}
			root := tr.addAt("op", i, -1, r.start, r.end)
			serviceSpans(tr, i, root, r, resp.ElapsedNS, parts)
		}
	}
	return ph
}

// warmPhases maps the stats phases of a warm resume to their layer.
var warmPhases = map[string]string{
	"eppp":          "core.warm.eppp",
	"cover.columns": "core.warm.cover_columns",
	"cover.greedy":  "core.warm.cover_greedy",
	"cover.patch":   "core.warm.cover_patch",
}

func (w *editLoop) check(t *tally) []string {
	var problems []string
	rng := rand.New(rand.NewSource(w.seed ^ 0x6f7261636c65))
	type sample struct {
		ch   *chain
		step int
		f    *bfunc.Func
		form string
	}
	var timedSteps []sample
	for _, ch := range w.chains {
		f := ch.base
		for s, e := range ch.edits {
			f = applyEdit(f, e)
			if ch.phase[s] < 0 {
				continue
			}
			r := ch.replies[s]
			if r.body == nil {
				continue // a step of a phase this run did not execute
			}
			resp, err := r.decode()
			if err != nil {
				t.add(0, "", "", true, err)
				continue
			}
			var verr error
			if r.status == http.StatusOK && resp.Delta == "warm" {
				if verr = verifyForm(resp.Form, f); verr != nil {
					problems = append(problems, fmt.Sprintf("%s(%d) step %d: %v", ch.bench, ch.out, s, verr))
				}
				timedSteps = append(timedSteps, sample{ch, s, f, resp.Form})
			}
			t.add(r.status, resp.Code, resp.Delta, true, verr)
		}
	}
	// Cold = warm oracle on a seeded sample of the timed steps: the
	// engine's cold path on the edited function, in the chain's canonical
	// variable space and rendered back like the service renders, must
	// equal the warm response byte for byte.
	for k := 0; k < editLoopOracle && len(timedSteps) > 0; k++ {
		sm := timedSteps[rng.Intn(len(timedSteps))]
		cold, err := w.coldForm(sm.ch, sm.f)
		switch {
		case err != nil:
			problems = append(problems, fmt.Sprintf("cold oracle %s(%d) step %d: %v", sm.ch.bench, sm.ch.out, sm.step, err))
		case cold != sm.form:
			problems = append(problems, fmt.Sprintf("cold oracle %s(%d) step %d: warm %q, cold %q", sm.ch.bench, sm.ch.out, sm.step, sm.form, cold))
		}
	}
	return problems
}

// coldForm minimizes f from scratch with the warm engine's cold entry
// point, core.MinimizeExactWarm, in the variable order the chain's warm
// state lives in (the canonical order of its base), and renders the form
// back in the client's order. A warm delta response on the chain must
// equal it byte for byte. (A no_cache re-submission of f would not: the
// service minimizes it in f's own canonical order, which edits change.)
func (w *editLoop) coldForm(ch *chain, f *bfunc.Func) (string, error) {
	_, perm, _ := fcache.Canonicalize(ch.base)
	opts := harness.DefaultConfig().CoreOptions()
	res, _, err := core.MinimizeExactWarm(permute(f, perm), opts)
	if err != nil {
		return "", err
	}
	inv := fcache.InversePerm(perm)
	form := core.Form{N: res.Form.N}
	for _, t := range res.Form.Terms {
		form.Terms = append(form.Terms, t.PermuteVars(inv))
	}
	return form.String(), nil
}

// applyEdit returns f with e applied.
func applyEdit(f *bfunc.Func, e edit) *bfunc.Func {
	on := make([]uint64, 0, f.OnCount())
	for _, p := range f.On() {
		if p != e.remove {
			on = append(on, p)
		}
	}
	return bfunc.NewDC(f.N(), append(on, e.add), f.DC())
}

func (w *editLoop) literalsPerOp() float64 {
	total, n := 0, 0
	last := w.phases - 1
	for _, ch := range w.chains {
		for s, r := range ch.replies {
			if ch.phase[s] != last || r.body == nil {
				continue
			}
			if resp, err := r.decode(); err == nil {
				total += resp.Literals
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

func (w *editLoop) layers(tr *tracer) map[string]metric {
	self, total := tr.layerTimes()
	m := emptyLayers()
	ops := float64(w.steps * len(w.chains))
	for _, layer := range warmPhases {
		sum := 0.0
		for _, v := range total[layer] {
			sum += v
		}
		m[layer+"_ms_per_op"] = metric{sum / ops, "ms"}
	}
	warm := w.stats.after.DeltaWarm - w.stats.before.DeltaWarm
	reused := w.stats.after.DeltaCoverReused - w.stats.before.DeltaCoverReused
	m["core.warm.cover_reused_ratio"] = metric{w.stats.ratio(reused, warm), "ratio"}
	m["service.handler.ms_per_op"] = metric{mean(total["service.handler"]), "ms"}
	m["service.process.ms_per_op"] = metric{mean(total["service.process"]), "ms"}
	m["service.codec.ms_per_op"] = metric{mean(self["service.handler"]), "ms"}
	m["service.unattributed.ms_per_op"] = metric{mean(self["service.process"]), "ms"}
	w.stats.cacheLayers(m, w.steps*len(w.chains))
	return m
}
