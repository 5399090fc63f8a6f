package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
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
// A resume unions on the cold build's kernel. A union's structure and
// cost follow from its group's structure and the pair's complement
// difference δ (Algorithm 1), so a retraction prices its union without
// building it, and a fold-in files its union in the next level's
// partition trie as a complement vector. The trie then hands the next
// level's new members back grouped by structure, in path order.
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

// pointSigOf returns the OR of pointSig over the points of c, walked in
// Gray-code order from affineOf's offset and rows, and the grown basis
// scratch for the next call.
func pointSigOf(c *pcube.CEX, basis []uint64) (uint64, []uint64) {
	p, basis := affineOf(c, basis[:0])
	sig := pointSig(p)
	for i := uint64(1); i < 1<<uint(len(basis)); i++ {
		p ^= basis[bits.TrailingZeros64(i)]
		sig |= pointSig(p)
	}
	return sig, basis
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
// discard-count bookkeeping, canonical candidate emission and per-level
// group capture. The warm state keeps every level, each pseudoproduct
// as a CEX of its own: a resume shares its survivors with the state it
// patches and drops the entries an edit kills, so an entry must be
// freed on its own (DESIGN.md ablation 15).
func buildEPPPWarm(f *bfunc.Func, opts Options) (*EPPPSet, *WarmState, error) {
	defer opts.Stats.Phase(stats.PhaseEPPP)()
	start := time.Now()
	n := f.N()
	b := newBudget(opts)
	bst := BuildStats{}
	ws := &WarmState{n: n, f: f, cost: opts.Cost}

	u := newUnifier(opts.Cost, b)
	defer u.release()
	cur, next := u.levels(n)
	pointLevel(cur, n, f.Care())
	if !b.spend(cur.Len()) {
		return nil, nil, b.failure()
	}
	var candidates []*pcube.CEX
	var basis []uint64
	for level := 0; cur.Len() > 0; level++ {
		if err := opts.ctxErr(); err != nil {
			return nil, nil, err
		}
		bst.LevelSizes = append(bst.LevelSizes, cur.Len())
		bst.Groups = append(bst.Groups, cur.NumGroups())
		if opts.Stats != nil {
			opts.Stats.Add(stats.CtrTrieNodes, int64(cur.NumInternalNodes()))
		}
		next.Reset(n)
		wl := warmLevel{}
		ok := true
		cur.PathGroups(func(path []byte, g ptrie.Group) bool {
			if ok = u.group(g, next); !ok {
				return false
			}
			// Capture the group canonically: entries by complement
			// vector, with point signatures for delta invalidation.
			wg := &warmGroup{path: string(path), entries: make([]warmEntry, len(u.cvs))}
			masks := g.Masks()
			for i, cv := range u.cvs {
				c := pcube.NewCEX(n, g.Canon(), pcube.AppendFactors(make([]pcube.Factor, 0, len(masks)), masks, cv))
				var sig uint64
				sig, basis = pointSigOf(c, basis)
				wg.entries[i] = warmEntry{cex: c, sig: sig, markCnt: u.marks[i], prevCand: u.marks[i] == 0}
				wg.sig |= sig
			}
			slices.SortFunc(wg.entries, func(a, b warmEntry) int {
				return cmp.Compare(a.cex.CompVector(), b.cex.CompVector())
			})
			wl.groups = append(wl.groups, wg)
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
		cur, next = next, cur
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

// resumer carries the per-resume state threaded through group
// patching. Its unions are the cold pair loop's (unifier.group): a
// union's structure and cost follow from its group's structure and the
// pair's complement difference δ (pcube.UnionMasks, CostKind.ofMasks),
// and its complement vector from the pair's (pcube.UnionCompVector). So
// a retraction, which needs only the cost, builds no factors, and a
// fold-in files its union in the next level's trie as the vector alone.
// The two level tries and the scratch come from a pooled unifier.
type resumer struct {
	n          int
	cost       CostKind
	b          *budget
	bst        *BuildStats
	u          *unifier
	removed    []uint64 // care points that left, sorted
	removedSig uint64
	next       *ptrie.Trie // the next level's new entries
	masks      []uint64    // a patched old group's factor masks
	dead       []warmEntry // a patched group's entries that die
	basis      []uint64    // pointSigOf scratch
	overBudget bool
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

// unionCost returns the structure (canonical mask, and factor masks in
// the unifier's scratch) and the cost of the union of two members of
// the group with canonical mask canon and factor masks masks whose
// complement vectors differ by d, and counts the union.
func (r *resumer) unionCost(canon uint64, masks []uint64, d uint64) (uint64, []uint64, int) {
	ms, c := pcube.UnionMasks(r.u.buf, canon, masks, d)
	r.u.buf = ms
	r.bst.Unions++
	return c, ms, r.cost.ofMasks(ms)
}

// patchGroup rebuilds one dirty group, of canonical mask canon and
// factor masks masks, whose new members have the complement vectors
// news: it drops entries that die, retracts their mark contributions
// from survivors, then folds the new members in one at a time —
// unioning each against the current entries exactly once per unordered
// pair, updating both sides' mark counts and filing every union in the
// next level's trie. Members of a group share its structure and so its
// cost. Returns nil when the group empties. g may have no entries (a
// group that exists only after the edit).
func (r *resumer) patchGroup(g *warmGroup, canon uint64, masks, news []uint64) *warmGroup {
	cost := r.cost.ofMasks(masks)
	entries := make([]warmEntry, 0, len(g.entries)+len(news))
	r.dead = r.dead[:0]
	for _, e := range g.entries {
		if r.dies(&e) {
			r.dead = append(r.dead, e)
		} else {
			entries = append(entries, e)
		}
	}
	for _, d := range r.dead {
		for i := range entries {
			if _, _, h := r.unionCost(canon, masks, entries[i].cex.CompVector()^d.cex.CompVector()); h <= cost {
				entries[i].markCnt--
			}
		}
	}
	for _, cv := range news {
		x := pcube.NewCEX(r.n, canon, pcube.AppendFactors(make([]pcube.Factor, 0, len(masks)), masks, cv))
		xe := warmEntry{cex: x}
		xe.sig, r.basis = pointSigOf(x, r.basis)
		for i := range entries {
			cve := entries[i].cex.CompVector()
			c, ms, h := r.unionCost(canon, masks, cve^cv)
			if h <= cost {
				entries[i].markCnt++
				xe.markCnt++
			}
			// Every union of a new member contains an added care point,
			// so it can never collide with a surviving old entry.
			ug, ucv := r.next.Group(c, ms), pcube.UnionCompVector(cve, cv)
			if ug.Find(ucv) {
				continue
			}
			ug.Add(ucv)
			r.bst.Fresh++
			if !r.b.spend(1) {
				r.overBudget = true
				return nil
			}
		}
		// Insert in canonical (complement vector) position.
		at := sort.Search(len(entries), func(i int) bool {
			return entries[i].cex.CompVector() > cv
		})
		entries = slices.Insert(entries, at, xe)
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

// patchOld is patchGroup for an old group that receives no new
// members; its structure is read off its first entry.
func (r *resumer) patchOld(g *warmGroup) *warmGroup {
	c := g.entries[0].cex
	r.masks = r.masks[:0]
	for _, f := range c.Factors {
		r.masks = append(r.masks, f.Vars)
	}
	return r.patchGroup(g, c.Canon, r.masks, nil)
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
// they are added or filed, survivors once their level is patched. So
// a resume fails exactly when the edited state's Candidates exceed
// MaxCandidates.
func resumeEPPP(ws *WarmState, edited *bfunc.Func, opts Options) (*EPPPSet, *WarmState, *resumeMeta, error) {
	defer opts.Stats.Phase(stats.PhaseEPPP)()
	start := time.Now()
	n := ws.n
	bst := BuildStats{}
	r := &resumer{
		n:       n,
		cost:    opts.Cost,
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
	// A small edit changes a small share of the candidates, so the
	// previous generation's count sizes this one's lists.
	oldCands := ws.cands
	candidates := make([]*pcube.CEX, 0, len(oldCands))
	meta := &resumeMeta{sigs: make([]uint64, 0, len(oldCands)), oldIdx: make([]int32, 0, len(oldCands))}
	// Cursor into the previous generation's candidate list for the
	// monotone survivor merge in the emission loop below. Surviving
	// candidates keep their relative order (levels ascending, groups by
	// unchanged path, entries by unchanged complement vector), so each
	// prevCand entry matches at or after the cursor; the skipped
	// positions are candidates that died or got marked.
	cursor := 0

	// cur holds the current level's new entries, filed by structure like
	// a cold build's level; the added points are level 0's.
	r.u = newUnifier(opts.Cost, r.b)
	defer r.u.release()
	cur, next := r.u.levels(n)
	pointLevel(cur, n, added)
	bst.Fresh += int64(len(added))

	for lev := 0; ; lev++ {
		var old []*warmGroup
		if lev < len(ws.levels) {
			old = ws.levels[lev].groups
		}
		if len(old) == 0 && cur.Len() == 0 {
			break
		}
		if err := opts.ctxErr(); err != nil {
			return nil, nil, nil, err
		}
		// Every new entry lands in the level, and was charged when it was
		// added or filed.
		charged := cur.Len()
		next.Reset(n)
		r.next = next

		outGroups := make([]*warmGroup, 0, len(old)+cur.NumGroups())
		var owned []*warmGroup // groups patchGroup built: this generation may write to them
		appendGroup := func(g *warmGroup) {
			if g != nil {
				outGroups = append(outGroups, g)
				owned = append(owned, g)
			}
		}
		// oldUpTo passes on the old groups whose paths sort before path
		// (all that remain for a nil path): a clean group is shared with
		// the previous generation, its unions at the next level already
		// in the old snapshot; a dirty one is patched.
		oi := 0
		oldUpTo := func(path []byte) {
			for ; oi < len(old) && (path == nil || old[oi].path < string(path)); oi++ {
				if g := old[oi]; g.sig&r.removedSig == 0 {
					outGroups = append(outGroups, g)
				} else {
					appendGroup(r.patchOld(g))
				}
			}
		}
		// The new entries' groups in path order, the order of the old
		// groups, merged against them.
		cur.PathGroups(func(path []byte, ng ptrie.Group) bool {
			oldUpTo(path)
			var g *warmGroup
			if oi < len(old) && old[oi].path == string(path) {
				g = old[oi]
				oi++
			} else {
				g = &warmGroup{path: string(path)}
			}
			r.u.cvs = ng.CompVectors(r.u.cvs[:0])
			appendGroup(r.patchGroup(g, ng.Canon(), ng.Masks(), r.u.cvs))
			return !r.overBudget
		})
		if r.overBudget {
			return nil, nil, nil, r.b.failure()
		}
		oldUpTo(nil)

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
		cur, next = next, cur
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
			// Per entry: the entry (24 B) + its CEX header (56 B, in the
			// 64 B size class) + 16 B per factor, which every entry of a
			// group has as many of. Every warm entry's CEX is an object of
			// its own, captured or resumed, so that an entry a resume
			// drops is freed with it. A CEX carries no key strings; those
			// are built on demand.
			perEntry := 24 + 64 + int64(len(g.entries[0].cex.Factors))*16
			b += 64 + int64(len(g.path)) + int64(len(g.entries))*perEntry
		}
	}
	b += int64(len(ws.cands)) * 8
	for _, pts := range ws.candPts {
		b += 56 + int64(len(pts))*8
	}
	ws.bytes = b
}
