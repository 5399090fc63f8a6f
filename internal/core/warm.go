package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/bfunc"
	"repro/internal/pcube"
	"repro/internal/ptrie"
	"repro/internal/stats"
)

// This file implements warm-state minimization: a cold run that
// snapshots its reusable intermediates (MinimizeExactWarm) and a resume
// path that patches the snapshot under a small ON/DC-set edit instead
// of rebuilding it (ResumeExact).
//
// The snapshot leans on a structural fact of Algorithm 2: level k of
// the construction is exactly the set of degree-k pseudocubes contained
// in the care set. (Induction: any degree-(k+1) pseudocube splits along
// each canonical direction into two same-structure halves inside care,
// so it is generated; conversely every union of two care-contained
// pseudocubes is care-contained.) The level sets are therefore pure
// functions of the care set — independent of generation history — and a
// care edit changes them in a local way:
//
//   - an entry dies iff it contains a removed care point;
//   - the new entries at level k are exactly the degree-k pseudocubes
//     containing at least one added point, and each is the union of a
//     new level-(k-1) half with a surviving (or earlier-new) half in
//     the same structure group — so they are reachable by unioning new
//     members against their group only;
//   - the discard marks of Algorithm 2 step 2 are maintained as counts
//     (partners that discard me), so a dying partner's contribution can
//     be retracted and a new partner's added without re-unioning the
//     whole group.
//
// Byte-identity of the patched result requires a candidate order that
// is itself history-independent, so the warm engines emit candidates in
// canonical order: levels ascending, structure groups in trie path-key
// order, entries within a group by complement vector. This differs from
// BuildEPPP's generation order (insertion order within groups), which
// is why warm capture is a separate code path: MinimizeExact and every
// pinned table number stay untouched, and "cold run" in the delta
// engine's correctness bar means MinimizeExactWarm.

// WarmState is the reusable intermediate state of one warm exact
// minimization: the per-level structure groups (with discard counts and
// point signatures for cheap invalidation) and the ON points covered by
// each covering candidate. It is immutable — ResumeExact copies the
// groups it dirties and shares the rest — so one WarmState may serve
// many concurrent resumes.
type WarmState struct {
	n      int
	f      *bfunc.Func
	cost   CostKind
	levels []warmLevel
	// cands is this generation's candidate list in canonical emission
	// order, and candPts its aligned sorted covered-ON point lists
	// (empty for candidates covering only don't-cares). Survivors keep
	// their CEX pointer identity across resumes, and surviving
	// candidates keep their relative order, so the next resume
	// re-associates point lists by a single monotone merge against this
	// list instead of a per-candidate map lookup. Both are nil when the
	// covering step short-circuited trivially (nothing was computed).
	cands   []*pcube.CEX
	candPts [][]uint64
	bytes   int64
}

// N returns the input arity of the snapshotted function.
func (ws *WarmState) N() int { return ws.n }

// Function returns the snapshotted function.
func (ws *WarmState) Function() *bfunc.Func { return ws.f }

// Bytes estimates the retained footprint of the warm state, the weight
// size-aware caches should charge it.
func (ws *WarmState) Bytes() int64 { return ws.bytes }

type warmLevel struct {
	groups []*warmGroup // sorted by trie path key
}

type warmGroup struct {
	path string
	sig  uint64 // OR of entry signatures
	// entries are sorted by complement vector (unique within a group),
	// the canonical within-group order.
	entries []warmEntry
}

type warmEntry struct {
	cex *pcube.CEX
	sig uint64 // OR of pointSig over the entry's points
	// markCnt counts same-group partners p with cost(union(e,p)) <=
	// cost(e); the entry is a covering candidate iff markCnt == 0.
	markCnt int32
	// prevCand records whether the entry was a covering candidate in
	// the generation that owns (created or last patched) its group. In
	// every committed WarmState the invariant prevCand == (markCnt ==
	// 0) holds — clean groups shared across generations keep it because
	// their mark counts never change. During a resume, patchGroup's
	// value copies carry the previous generation's bit while the new
	// mark counts are computed, which is exactly what candidate
	// emission needs to merge survivors against the previous candidate
	// list; the owning generation re-normalizes the bit afterwards.
	prevCand bool
}

// pointSig hashes a point into a 64-bit signature bit. Group and entry
// signatures are ORs of point signatures, so sig&removedSig == 0 proves
// no removed point touches the entry; a nonzero intersection is
// confirmed with exact Contains checks.
func pointSig(p uint64) uint64 {
	return 1 << ((p * 0x9E3779B97F4A7C15) >> 58)
}

// Delta is an edit script against a warm state's function. Points move
// between the ON, DC and OFF sets:
//
//	AddOn:    OFF or DC point becomes ON;
//	RemoveOn: ON point becomes OFF (or DC when also in AddDC);
//	AddDC:    OFF point (including one just removed from ON) becomes DC;
//	RemoveDC: DC point becomes OFF (or ON when also in AddOn).
//
// Validation is strict — adding a point that is already ON, or removing
// one that is not, is an error — so silent no-op edits cannot mask
// client bookkeeping bugs.
type Delta struct {
	AddOn, RemoveOn, AddDC, RemoveDC []uint64
}

// apply validates d against f and returns the edited function plus the
// care churn (points entering or leaving ON ∪ DC).
func (d Delta) apply(f *bfunc.Func) (*bfunc.Func, int, error) {
	n := f.N()
	limit := uint64(1) << uint(n)
	dedup := func(name string, pts []uint64) (map[uint64]bool, error) {
		m := make(map[uint64]bool, len(pts))
		for _, p := range pts {
			if p >= limit {
				return nil, fmt.Errorf("core: %s point %d outside B^%d", name, p, n)
			}
			m[p] = true
		}
		return m, nil
	}
	addOn, err := dedup("add", d.AddOn)
	if err != nil {
		return nil, 0, err
	}
	rmOn, err := dedup("remove", d.RemoveOn)
	if err != nil {
		return nil, 0, err
	}
	addDC, err := dedup("dc_add", d.AddDC)
	if err != nil {
		return nil, 0, err
	}
	rmDC, err := dedup("dc_remove", d.RemoveDC)
	if err != nil {
		return nil, 0, err
	}
	for p := range addOn {
		if rmOn[p] {
			return nil, 0, fmt.Errorf("core: point %d both added to and removed from ON", p)
		}
		if f.IsOn(p) {
			return nil, 0, fmt.Errorf("core: add point %d already in ON-set", p)
		}
	}
	for p := range rmOn {
		if !f.IsOn(p) {
			return nil, 0, fmt.Errorf("core: remove point %d not in ON-set", p)
		}
	}
	for p := range rmDC {
		if addDC[p] {
			return nil, 0, fmt.Errorf("core: point %d both added to and removed from DC", p)
		}
		if !f.IsDC(p) {
			return nil, 0, fmt.Errorf("core: dc_remove point %d not in DC-set", p)
		}
	}
	on := make([]uint64, 0, f.OnCount()+len(addOn))
	for _, p := range f.On() {
		if !rmOn[p] {
			on = append(on, p)
		}
	}
	for p := range addOn {
		on = append(on, p)
	}
	dc := make([]uint64, 0, len(f.DC())+len(addDC))
	for _, p := range f.DC() {
		// An ON-add of a DC point moves it; an explicit dc_remove drops it.
		if !rmDC[p] && !addOn[p] {
			dc = append(dc, p)
		}
	}
	for p := range addDC {
		if f.IsDC(p) {
			return nil, 0, fmt.Errorf("core: dc_add point %d already in DC-set", p)
		}
		if f.IsOn(p) && !rmOn[p] {
			return nil, 0, fmt.Errorf("core: dc_add point %d is in the ON-set", p)
		}
		if addOn[p] {
			return nil, 0, fmt.Errorf("core: point %d both added to ON and DC", p)
		}
		dc = append(dc, p)
	}
	edited := bfunc.NewDC(n, on, dc)
	churn := len(diffSorted(f.Care(), edited.Care())) + len(diffSorted(edited.Care(), f.Care()))
	return edited, churn, nil
}

// Apply returns the function d edits ws's snapshot into, without
// resuming; callers use it to inspect or size an edit before paying for
// the resume.
func (ws *WarmState) Apply(d Delta) (*bfunc.Func, error) {
	edited, _, err := d.apply(ws.f)
	return edited, err
}

// Churn returns the care-set churn of d against ws's snapshot: the
// number of points entering or leaving ON ∪ DC. Serving layers compare
// it against a dirty-fraction threshold to decide warm resume vs cold
// rerun.
func (ws *WarmState) Churn(d Delta) (int, error) {
	_, churn, err := d.apply(ws.f)
	return churn, err
}

// diffSorted returns the elements of a (sorted) not present in b
// (sorted).
func diffSorted(a, b []uint64) []uint64 {
	var out []uint64
	j := 0
	for _, p := range a {
		for j < len(b) && b[j] < p {
			j++
		}
		if j >= len(b) || b[j] != p {
			out = append(out, p)
		}
	}
	return out
}

// intersectSorted returns the elements present in both sorted slices.
func intersectSorted(a, b []uint64) []uint64 {
	var out []uint64
	j := 0
	for _, p := range a {
		for j < len(b) && b[j] < p {
			j++
		}
		if j < len(b) && b[j] == p {
			out = append(out, p)
		}
	}
	return out
}

// MinimizeExactWarm is MinimizeExact with warm-state capture: the same
// partition-trie EPPP construction and covering, but emitting covering
// candidates in canonical order (levels ascending, groups by trie path
// key, entries by complement vector) and returning a WarmState that
// ResumeExact can patch under a small edit. The form is equivalent to
// MinimizeExact's — same candidate set, same cost — but may differ
// textually where the covering heuristic broke a tie by candidate
// order. The EPPP build and the covering columns are serial, like every
// build; Options.CoverWorkers reaches only the exact branch and bound.
func MinimizeExactWarm(f *bfunc.Func, opts Options) (*Result, *WarmState, error) {
	set, ws, err := buildEPPPWarm(f, opts)
	if err != nil {
		return nil, nil, err
	}
	out, err := selectCover(f, set.Candidates, nil, nil, coverPatch{}, opts)
	if err != nil {
		return nil, nil, err
	}
	if out.pts != nil {
		ws.cands, ws.candPts = set.Candidates, out.pts
	}
	ws.computeBytes()
	return &Result{Form: out.form, Build: set.Stats, CoverTime: out.time,
		CoverOptimal: out.optimal}, ws, nil
}

// buildEPPPWarm is the serial Algorithm 2 loop of BuildEPPP with
// MarkCnt bookkeeping, canonical candidate emission and per-level group
// capture.
func buildEPPPWarm(f *bfunc.Func, opts Options) (*EPPPSet, *WarmState, error) {
	defer opts.Stats.Phase(stats.PhaseEPPP)()
	start := time.Now()
	n := f.N()
	b := newBudget(opts)
	bst := BuildStats{}
	ws := &WarmState{n: n, f: f, cost: opts.Cost}

	cur := ptrie.New(n)
	for _, p := range f.Care() {
		cur.Insert(pcube.FromPoint(n, p))
	}
	if !b.spend(cur.Len()) {
		return nil, nil, b.failure()
	}

	u := newUnifier(opts.Cost, b)
	defer u.release()
	var candidates []*pcube.CEX
	var pts []uint64
	for level := 0; cur.Len() > 0; level++ {
		if err := opts.ctxErr(); err != nil {
			return nil, nil, err
		}
		bst.LevelSizes = append(bst.LevelSizes, cur.Len())
		bst.Groups = append(bst.Groups, cur.NumGroups())
		if opts.Stats != nil {
			opts.Stats.Add(stats.CtrTrieNodes, int64(cur.NumInternalNodes()))
		}
		next := ptrie.New(n)
		wl := warmLevel{}
		ok := true
		cur.PathGroups(func(path []byte, entries []*ptrie.Entry) bool {
			if ok = u.group(entries, next, func(k int) { entries[k].MarkCnt++ }); !ok {
				return false
			}
			// Capture the group canonically: entries by complement
			// vector, with point signatures for delta invalidation.
			g := &warmGroup{path: string(path), entries: make([]warmEntry, len(entries))}
			for i, e := range entries {
				var sig uint64
				pts = e.CEX.AppendPoints(pts[:0])
				for _, p := range pts {
					sig |= pointSig(p)
				}
				g.entries[i] = warmEntry{cex: e.CEX, sig: sig, markCnt: e.MarkCnt, prevCand: e.MarkCnt == 0}
				g.sig |= sig
			}
			sort.Slice(g.entries, func(a, b int) bool {
				return g.entries[a].cex.CompVector() < g.entries[b].cex.CompVector()
			})
			wl.groups = append(wl.groups, g)
			return true
		})
		if !ok {
			return nil, nil, b.failure()
		}
		ws.levels = append(ws.levels, wl)
		for _, g := range wl.groups {
			for i := range g.entries {
				if g.entries[i].markCnt == 0 {
					candidates = append(candidates, g.entries[i].cex)
				}
			}
		}
		bst.Candidates += cur.Len()
		cur = next
	}
	bst.Unions, bst.Fresh = u.unions, u.fresh
	bst.EPPP = len(candidates)
	bst.BuildTime = time.Since(start)
	recordBuild(opts.Stats, &bst)
	opts.Stats.Add(stats.CtrTrieWalks, u.walks)
	return &EPPPSet{N: n, Candidates: candidates, Stats: bst}, ws, nil
}

// ResumeExact patches ws under the edit d and returns the minimization
// of the edited function plus a fresh WarmState for it. The result is
// byte-identical to MinimizeExactWarm on the edited function (same
// form, same candidate order, same statistics-bearing candidate set);
// only BuildStats.Unions/Fresh and the timings reflect the smaller
// incremental work. ws is not modified: dirtied groups are copied,
// clean ones shared, so concurrent resumes from one snapshot are safe.
//
// The edit must keep the cost model: resuming with a different
// Options.Cost than the snapshot was built under is an error.
func ResumeExact(ws *WarmState, d Delta, opts Options) (*Result, *WarmState, error) {
	if ws == nil {
		return nil, nil, errors.New("core: nil warm state")
	}
	if opts.Cost != ws.cost {
		return nil, nil, fmt.Errorf("core: warm state built with cost kind %d, resume requested %d", ws.cost, opts.Cost)
	}
	edited, _, err := d.apply(ws.f)
	if err != nil {
		return nil, nil, err
	}
	set, nws, meta, err := resumeEPPP(ws, edited, opts)
	if err != nil {
		return nil, nil, err
	}
	patch := coverPatch{
		removedOn: diffSorted(ws.f.On(), edited.On()),
		dcToOn:    intersectSorted(edited.On(), ws.f.DC()),
	}
	out, err := selectCover(edited, set.Candidates, meta, ws.candPts, patch, opts)
	if err != nil {
		return nil, nil, err
	}
	if out.pts != nil {
		nws.cands, nws.candPts = set.Candidates, out.pts
	}
	nws.computeBytes()
	return &Result{Form: out.form, Build: set.Stats, CoverTime: out.time,
		CoverOptimal: out.optimal}, nws, nil
}

// resumer carries the per-resume state threaded through group patching.
type resumer struct {
	n          int
	opts       Options
	b          *budget
	bst        *BuildStats
	removed    []uint64 // care points that left, sorted
	removedSig uint64
	// next-level accumulation: fresh unions keyed by structure path,
	// deduped by full CEX key. Every fresh union contains an added care
	// point, so it can never collide with a surviving old entry.
	nextIncoming map[string][]*pcube.CEX
	nextSeen     keySet
	unionBuf     []pcube.Factor // pcube.UnionInto scratch
	pathBuf      []byte
	ptsBuf       []uint64
	overBudget   bool
}

func (r *resumer) sigOf(c *pcube.CEX) uint64 {
	r.ptsBuf = c.AppendPoints(r.ptsBuf[:0])
	var sig uint64
	for _, p := range r.ptsBuf {
		sig |= pointSig(p)
	}
	return sig
}

// union computes the union of two same-group entries into the
// resumer's scratch and returns its factors, canonical mask and cost.
func (r *resumer) union(a, b *pcube.CEX) ([]pcube.Factor, uint64, int) {
	fs, canon, _ := pcube.UnionInto(r.unionBuf, a, b)
	r.unionBuf = fs
	r.bst.Unions++
	return fs, canon, r.opts.Cost.ofFactors(fs)
}

// emit routes a union, given as scratch factors, to its next-level
// structure group; only a union not seen before at that level is
// copied into a CEX. Reports false when the generation budget is
// exhausted.
func (r *resumer) emit(canon uint64, fs []pcube.Factor) bool {
	if _, fresh := r.nextSeen.add(fs); !fresh {
		return true
	}
	u := pcube.NewCEX(r.n, canon, slices.Clone(fs))
	r.pathBuf = ptrie.PathKey(u, r.pathBuf[:0])
	path := string(r.pathBuf)
	r.nextIncoming[path] = append(r.nextIncoming[path], u)
	r.bst.Fresh++
	if !r.b.spend(1) {
		r.overBudget = true
		return false
	}
	return true
}

// dies reports whether entry e contains a removed care point, using the
// signature as a negative filter before the exact membership checks.
func (r *resumer) dies(e *warmEntry) bool {
	if e.sig&r.removedSig == 0 {
		return false
	}
	for _, p := range r.removed {
		if e.cex.Contains(p) {
			return true
		}
	}
	return false
}

// patchGroup rebuilds one dirty group: drops entries that die, retracts
// their mark contributions from survivors, then folds the new members
// in one at a time — unioning each against the current entries exactly
// once per unordered pair, updating both sides' mark counts and
// emitting every union to the next level. Returns nil when the group
// empties. g may have no entries (a group that exists only after the
// edit).
func (r *resumer) patchGroup(g *warmGroup, news []*pcube.CEX) *warmGroup {
	entries := make([]warmEntry, 0, len(g.entries)+len(news))
	var dead []warmEntry
	for _, e := range g.entries {
		if r.dies(&e) {
			dead = append(dead, e)
		} else {
			entries = append(entries, e)
		}
	}
	for _, d := range dead {
		for i := range entries {
			if _, _, h := r.union(entries[i].cex, d.cex); h <= r.opts.Cost.of(entries[i].cex) {
				entries[i].markCnt--
			}
		}
	}
	for _, x := range news {
		xe := warmEntry{cex: x, sig: r.sigOf(x)}
		hx := r.opts.Cost.of(x)
		for i := range entries {
			fs, canon, h := r.union(entries[i].cex, x)
			if h <= r.opts.Cost.of(entries[i].cex) {
				entries[i].markCnt++
			}
			if h <= hx {
				xe.markCnt++
			}
			if !r.emit(canon, fs) {
				return nil
			}
		}
		// Insert in canonical (complement vector) position.
		cv := x.CompVector()
		at := sort.Search(len(entries), func(i int) bool {
			return entries[i].cex.CompVector() > cv
		})
		entries = append(entries, warmEntry{})
		copy(entries[at+1:], entries[at:])
		entries[at] = xe
	}
	if len(entries) == 0 {
		return nil
	}
	ng := &warmGroup{path: g.path, entries: entries}
	for i := range entries {
		ng.sig |= entries[i].sig
	}
	return ng
}

// resumeMeta is the per-candidate bookkeeping resumeEPPP hands the
// covering patch, aligned with the emitted candidate list: each
// candidate's point signature (OR of pointSig over its cube's points,
// for cheap "untouched by this edit" proofs) and, for survivors that
// were candidates of the previous generation, the index of their
// covered-ON list in that generation's candPts (-1 for candidates with
// no carried list).
type resumeMeta struct {
	sigs   []uint64
	oldIdx []int32
}

// resumeEPPP recomputes the level structure of ws for the edited
// function, touching only groups whose signatures intersect the removed
// points or that receive new members. It charges the budget for every
// entry of the edited levels, as a cold build does: new entries when
// they are added or emitted, survivors once their level is patched. So
// a resume fails exactly when the edited state's Candidates exceed
// MaxCandidates.
func resumeEPPP(ws *WarmState, edited *bfunc.Func, opts Options) (*EPPPSet, *WarmState, *resumeMeta, error) {
	defer opts.Stats.Phase(stats.PhaseEPPP)()
	start := time.Now()
	n := ws.n
	bst := BuildStats{}
	r := &resumer{
		n:       n,
		opts:    opts,
		b:       newBudget(opts),
		bst:     &bst,
		removed: diffSorted(ws.f.Care(), edited.Care()),
	}
	for _, p := range r.removed {
		r.removedSig |= pointSig(p)
	}
	added := diffSorted(edited.Care(), ws.f.Care())
	if !r.b.spend(len(added)) {
		return nil, nil, nil, r.b.failure()
	}

	nws := &WarmState{n: n, f: edited, cost: ws.cost}
	var candidates []*pcube.CEX
	meta := &resumeMeta{}
	// Cursor into the previous generation's candidate list for the
	// monotone survivor merge in the emission loop below. Surviving
	// candidates keep their relative order (levels ascending, groups by
	// unchanged path, entries by unchanged complement vector), so each
	// prevCand entry matches at or after the cursor; the skipped
	// positions are candidates that died or got marked.
	oldCands := ws.cands
	cursor := 0

	// incoming: new entries for the current level, keyed by path.
	incoming := map[string][]*pcube.CEX{}
	for _, p := range added {
		c := pcube.FromPoint(n, p)
		r.pathBuf = ptrie.PathKey(c, r.pathBuf[:0])
		incoming[string(r.pathBuf)] = append(incoming[string(r.pathBuf)], c)
	}
	bst.Fresh += int64(len(added))

	for lev := 0; ; lev++ {
		var old []*warmGroup
		if lev < len(ws.levels) {
			old = ws.levels[lev].groups
		}
		if len(old) == 0 && len(incoming) == 0 {
			break
		}
		if err := opts.ctxErr(); err != nil {
			return nil, nil, nil, err
		}
		// Every incoming entry lands in the level, and was charged when
		// it was added or emitted.
		charged := 0
		for _, cs := range incoming {
			charged += len(cs)
		}
		r.nextIncoming = map[string][]*pcube.CEX{}
		r.nextSeen = keySet{}

		// New-group paths in canonical order, merged against the (path
		// sorted) old groups below.
		paths := make([]string, 0, len(incoming))
		for p := range incoming {
			paths = append(paths, p)
		}
		sort.Strings(paths)

		outGroups := make([]*warmGroup, 0, len(old)+len(incoming))
		var owned []*warmGroup // groups patchGroup built: this generation may write to them
		pi := 0
		appendGroup := func(g *warmGroup) {
			if g != nil {
				outGroups = append(outGroups, g)
				owned = append(owned, g)
			}
		}
		for _, g := range old {
			for pi < len(paths) && paths[pi] < g.path {
				appendGroup(r.patchGroup(&warmGroup{path: paths[pi]}, incoming[paths[pi]]))
				pi++
			}
			var news []*pcube.CEX
			if pi < len(paths) && paths[pi] == g.path {
				news = incoming[paths[pi]]
				pi++
			}
			if len(news) == 0 && g.sig&r.removedSig == 0 {
				// Clean: shared with the previous generation, unions at
				// the next level already present in the old snapshot.
				outGroups = append(outGroups, g)
				continue
			}
			appendGroup(r.patchGroup(g, news))
		}
		for pi < len(paths) {
			appendGroup(r.patchGroup(&warmGroup{path: paths[pi]}, incoming[paths[pi]]))
			pi++
		}
		if r.overBudget {
			return nil, nil, nil, r.b.failure()
		}

		size := 0
		for _, g := range outGroups {
			size += len(g.entries)
			for i := range g.entries {
				e := &g.entries[i]
				if e.markCnt != 0 {
					continue
				}
				idx := int32(-1)
				if e.prevCand {
					// Was a candidate last generation: advance the merge
					// cursor to its position in the old list. The bounds
					// guard only fires when the old list is absent (the
					// previous cover short-circuited trivially); falling
					// back to -1 just rebuilds the list fresh.
					for cursor < len(oldCands) && oldCands[cursor] != e.cex {
						cursor++
					}
					if cursor < len(oldCands) {
						idx = int32(cursor)
						cursor++
					}
				}
				candidates = append(candidates, e.cex)
				meta.sigs = append(meta.sigs, e.sig)
				meta.oldIdx = append(meta.oldIdx, idx)
			}
		}
		// Restore the committed-state invariant prevCand == (markCnt ==
		// 0) on the groups this generation owns; shared groups already
		// satisfy it.
		for _, g := range owned {
			for i := range g.entries {
				g.entries[i].prevCand = g.entries[i].markCnt == 0
			}
		}
		if !r.b.spend(size - charged) {
			return nil, nil, nil, r.b.failure()
		}
		if size > 0 {
			nws.levels = append(nws.levels, warmLevel{groups: outGroups})
			bst.LevelSizes = append(bst.LevelSizes, size)
			bst.Groups = append(bst.Groups, len(outGroups))
			bst.Candidates += size
		}
		incoming = r.nextIncoming
	}
	bst.EPPP = len(candidates)
	bst.BuildTime = time.Since(start)
	recordBuild(opts.Stats, &bst)
	return &EPPPSet{N: n, Candidates: candidates, Stats: bst}, nws, meta, nil
}

// coverPatch carries the ON-set part of an edit into the covering
// patch: points that left the ON-set, and points that moved DC → ON
// (the only added ON points an old candidate can contain — candidates
// live inside the old care set, which freshly-ON OFF points were not
// in).
type coverPatch struct {
	removedOn []uint64
	dcToOn    []uint64
}

// patchPoints updates one candidate's covered-ON list under the patch.
// The old list is shared (and returned as-is, changed == false) when
// nothing changes; changed feeds the cover.warm_dirty_columns counter.
func patchPoints(old []uint64, c *pcube.CEX, patch coverPatch) (_ []uint64, changed bool) {
	var adds []uint64
	for _, p := range patch.dcToOn {
		if c.Contains(p) {
			adds = append(adds, p)
		}
	}
	drops := len(intersectSorted(old, patch.removedOn))
	if len(adds) == 0 && drops == 0 {
		return old, false
	}
	out := make([]uint64, 0, len(old)-drops+len(adds))
	i, j := 0, 0
	rm := patch.removedOn
	for _, p := range old {
		for i < len(rm) && rm[i] < p {
			i++
		}
		if i < len(rm) && rm[i] == p {
			continue
		}
		for j < len(adds) && adds[j] < p {
			out = append(out, adds[j])
			j++
		}
		out = append(out, p)
	}
	out = append(out, adds[j:]...)
	return out, true
}

// computeBytes estimates the retained footprint: group and entry
// bookkeeping, the CEX expressions kept alive, and the covered-ON
// lists. Sizes are struct-layout estimates, deliberately on the
// charged-too-much side.
func (ws *WarmState) computeBytes() {
	b := int64(192)
	b += int64(len(ws.f.On())+len(ws.f.DC())) * 8
	for _, wl := range ws.levels {
		for _, g := range wl.groups {
			b += 64 + int64(len(g.path))
			for i := range g.entries {
				// entry (24 B) + CEX header (56 B, in the 64 B size
				// class) + 16 B per factor. A CEX carries no key
				// strings; those are built on demand.
				b += 24 + 64 + int64(len(g.entries[i].cex.Factors))*16
			}
		}
	}
	b += int64(len(ws.cands)) * 8
	for _, pts := range ws.candPts {
		b += 56 + int64(len(pts))*8
	}
	ws.bytes = b
}
