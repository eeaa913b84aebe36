package main

// The traced replay: a seeded sample of a run's requests is replayed in
// the benchmark process by calling each layer's public functions in the
// order the daemon's handlers call them, with a span around each call.
// Work the daemon did before the measured phase (chases behind warm
// cache hits, compiled plans behind plan-cache hits) runs first, under
// a separate "prereq" root, so request spans hold only what the daemon
// does per request.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/certain"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/snap"
	"repro/pde"
	"repro/pde/client"
)

// span is one timed call. Start and End are nanoseconds from the
// tracer's origin; Parent is -1 for a root; Req is the request's index
// in the run's open-loop schedule (-1 for work outside any request).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// tracer holds spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, req int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose times were taken elsewhere.
func (t *tracer) add(name string, start, end time.Time, parent, req int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

// do runs f inside a span.
func (t *tracer) do(name string, parent, req int, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// replayer replays requests against in-process layers.
type replayer struct {
	tr        *tracer
	pl        *plan
	byID      map[string]*setting
	cold      bool // the daemon's cache misses: chases run inside requests
	ring      *cluster.Ring
	artifacts map[string]any // setting|src|tgt|kind -> *core.TractableTrace or *core.CanonicalTarget
	insts     map[string]*pde.Instance
	plans     map[string]*pde.Plan
	ctx       context.Context

	wrong      int
	chases     int
	steps      int
	merges     int
	finds      int
	blocks     []float64
	examined   []float64
	facts      []float64
	reqBytes   []float64
	entryBytes []float64
	roots      map[int]int // request index -> root span
	// pending holds snapshot saves, run after the request like the
	// daemon's write-behind queue.
	pending []func()
}

func newReplayer(pl *plan, st *settings, cold bool) (*replayer, error) {
	ring, err := cluster.New("http://127.0.0.1:1", []string{"http://127.0.0.1:2"}, 0)
	if err != nil {
		return nil, err
	}
	rp := &replayer{tr: newTracer(), pl: pl, byID: map[string]*setting{}, cold: cold, ring: ring,
		artifacts: map[string]any{}, insts: map[string]*pde.Instance{}, plans: map[string]*pde.Plan{},
		ctx: context.Background(), roots: map[int]int{}}
	for _, s := range st.all {
		rp.byID[s.id] = s
	}
	for id, inst := range pl.insts {
		rp.insts[id] = inst
	}
	rp.insts[hashText("")] = pde.NewInstance()
	return rp, nil
}

func (rp *replayer) topts() core.TractableOptions { return core.TractableOptions{Ctx: rp.ctx} }
func (rp *replayer) sopts() core.SolveOptions     { return core.SolveOptions{Ctx: rp.ctx} }

// sample picks up to perOp requests of each operation from the open
// loop, seeded, and returns their schedule indices in order.
func sample(open []*request, perOp int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	var idx []int
	for op := 0; op < numOps; op++ {
		var of []int
		for k, r := range open {
			if r.op == op {
				of = append(of, k)
			}
		}
		rng.Shuffle(len(of), func(a, b int) { of[a], of[b] = of[b], of[a] })
		idx = append(idx, of[:min(perOp, len(of))]...)
	}
	sort.Ints(idx)
	return idx
}

// resolve resolves one side of a read: inline text is parsed and
// hashed, an ID is looked up.
func (rp *replayer) resolve(parent, req int, inline, id string) (*pde.Instance, string, error) {
	if id != "" {
		inst := rp.insts[id]
		if inst == nil {
			return nil, "", fmt.Errorf("replay: unknown instance %s", id)
		}
		return inst, id, nil
	}
	if inline == "" {
		// An empty side is ∅; its parse and hash cost nothing worth a
		// span, and timing them would drown the per-instance medians.
		return pde.NewInstance(), hashText(""), nil
	}
	var inst *pde.Instance
	var err error
	rp.tr.do("depparse.instance", parent, req, func() { inst, err = pde.ParseInstance(inline) })
	if err != nil {
		return nil, "", err
	}
	rp.facts = append(rp.facts, float64(inst.NumFacts()))
	rp.tr.do("registry.hash", parent, req, func() { id = hashText(pde.FormatInstance(inst)) })
	return inst, id, nil
}

func hashText(text string) string {
	sum := sha256.Sum256([]byte(text))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// artifact returns the chased artifact of (st, i, j, kind), chasing it
// under parent when absent.
func (rp *replayer) artifact(parent, req int, st *setting, i, j *pde.Instance, srcID, tgtID string, generic bool) (any, error) {
	key := fmt.Sprintf("%s|%s|%s|%v", st.id, srcID, tgtID, generic)
	if a, ok := rp.artifacts[key]; ok {
		return a, nil
	}
	var a any
	var err error
	if generic {
		rp.tr.do("chase.generic", parent, req, func() { a, err = core.ChaseCanonicalTarget(st.s, i, j, rp.sopts()) })
		if err == nil {
			ct := a.(*core.CanonicalTarget)
			rp.countChase(ct.STResult.Steps, ct.STResult.Merges, ct.STResult.Finds)
			if ct.TResult != nil {
				rp.steps += ct.TResult.Steps
				rp.merges += ct.TResult.Merges
				rp.finds += ct.TResult.Finds
			}
		}
	} else {
		rp.tr.do("chase.tractable", parent, req, func() { a, err = core.ChaseCanonicalTractable(st.s, i, j, rp.topts()) })
		if err == nil {
			t := a.(*core.TractableTrace)
			rp.countChase(t.StepsST+t.StepsTS, 0, 0)
			if t.STResult != nil {
				rp.merges += t.STResult.Merges
				rp.finds += t.STResult.Finds
			}
			rp.blocks = append(rp.blocks, float64(t.Blocks))
		}
	}
	if err != nil {
		return nil, fmt.Errorf("replay chase %s: %w", st.name, err)
	}
	rp.artifacts[key] = a
	rp.pending = append(rp.pending, func() { rp.encode(req, st, i, j, srcID, tgtID, a) })
	return a, nil
}

func (rp *replayer) countChase(steps, merges, finds int) {
	rp.chases++
	rp.steps += steps
	rp.merges += merges
	rp.finds += finds
}

// encode mirrors the write-behind snapshot save of a freshly chased
// artifact (attributed to request req) and its warm-start load.
func (rp *replayer) encode(req int, st *setting, i, j *pde.Instance, srcID, tgtID string, a any) {
	e := &snap.Entry{SettingID: st.id, SourceID: srcID, TargetID: tgtID,
		SourceText: pde.FormatInstance(i), TargetText: pde.FormatInstance(j)}
	switch v := a.(type) {
	case *core.TractableTrace:
		e.Kind, e.Tractable = snap.KindTractable, v
	case *core.CanonicalTarget:
		e.Kind, e.Generic = snap.KindGeneric, v
	}
	var data []byte
	var err error
	rp.tr.do("snap.encode", -1, req, func() { data, err = snap.Encode(e) })
	if err != nil {
		return
	}
	rp.entryBytes = append(rp.entryBytes, float64(len(data)))
	rp.tr.do("snap.decode", -1, -1, func() { _, err = snap.Decode(data) })
}

// flush runs the pending snapshot saves.
func (rp *replayer) flush() {
	for _, f := range rp.pending {
		f()
	}
	rp.pending = nil
}

// plan returns the compiled plan of one query, compiling under parent
// when absent.
func (rp *replayer) plan(parent, req int, st *setting, text string, q pde.UCQ) (*pde.Plan, error) {
	key := st.id + "|" + text
	if p, ok := rp.plans[key]; ok {
		return p, nil
	}
	var p *pde.Plan
	var err error
	rp.tr.do("qplan.compile", parent, req, func() { p, err = pde.CompileCertain(st.s, q) })
	if err != nil {
		return nil, err
	}
	rp.plans[key] = p
	return p, nil
}

// prereq does, outside any request, the work a warm daemon already
// did before the request arrived.
func (rp *replayer) prereq(r *request) error {
	if rp.cold {
		return nil
	}
	root := rp.tr.begin("prereq", -1, -1)
	defer rp.flush()
	defer rp.tr.end(root)
	var settingID, src, tgt string
	var queries []string
	switch {
	case r.solve != nil:
		settingID, src, tgt = r.solve.SettingID, r.solve.SourceID, r.solve.TargetID
	case r.certain != nil:
		settingID, src, tgt, queries = r.certain.SettingID, r.certain.SourceID, r.certain.TargetID, []string{r.certain.Query}
	case r.batch != nil:
		settingID, src, tgt, queries = r.batch.SettingID, r.batch.SourceID, r.batch.TargetID, r.batch.Queries
	default:
		// An append migrates the entries of its base: those of a
		// lineage step the daemon holds.
		for _, l := range rp.pl.lins {
			for s, id := range l.ids {
				if id == r.appendTo {
					_, err := rp.artifact(root, -1, l.st, l.steps[s], l.j, id, l.tgtID, l.st.generic)
					return err
				}
			}
		}
		return nil
	}
	st := rp.byID[settingID]
	i, srcID, err := rp.resolve(root, -1, "", src)
	if err != nil {
		return err
	}
	j, tgtID, err := rp.resolve(root, -1, "", tgt)
	if err != nil {
		return err
	}
	if st.plan != nil && len(queries) > 0 {
		for _, text := range queries {
			q, err := parseQuery(text)
			if err != nil {
				return err
			}
			if _, err := rp.plan(root, -1, st, text, q); err != nil {
				return err
			}
		}
		return nil
	}
	_, err = rp.artifact(root, -1, st, i, j, srcID, tgtID, st.generic || len(queries) > 0)
	return err
}

// replay replays request r (schedule index k) under a root span and
// returns the response the daemon would have sent.
func (rp *replayer) replay(k int, r *request, proxied bool) error {
	if err := rp.prereq(r); err != nil {
		return err
	}
	var dto any
	switch {
	case r.solve != nil:
		dto = r.solve
	case r.certain != nil:
		dto = r.certain
	case r.batch != nil:
		dto = r.batch
	default:
		dto = r.app
	}
	body, err := json.Marshal(dto)
	if err != nil {
		return err
	}
	rp.reqBytes = append(rp.reqBytes, float64(len(body)))
	root := rp.tr.begin("server."+opNames[r.op], -1, k)
	rp.roots[k] = root
	defer rp.flush()
	defer rp.tr.end(root)
	var resp any
	switch r.op {
	case opSolve:
		var in client.SolveRequest
		rp.tr.do("wire.decode", root, k, func() { err = json.Unmarshal(body, &in) })
		if err == nil {
			resp, err = rp.solve(root, k, r, in, proxied)
		}
	case opCertain:
		var in client.CertainRequest
		rp.tr.do("wire.decode", root, k, func() { err = json.Unmarshal(body, &in) })
		if err == nil {
			resp, err = rp.certain(root, k, r, in, proxied)
		}
	case opBatch:
		var in client.CertainBatchRequest
		rp.tr.do("wire.decode", root, k, func() { err = json.Unmarshal(body, &in) })
		if err == nil {
			resp, err = rp.batch(root, k, r, in, proxied)
		}
	default:
		var in client.AppendRequest
		rp.tr.do("wire.decode", root, k, func() { err = json.Unmarshal(body, &in) })
		if err == nil {
			resp, err = rp.appendTo(root, k, r, in)
		}
	}
	if err != nil {
		return err
	}
	rp.tr.do("wire.encode", root, k, func() { _, err = json.Marshal(resp) })
	if cerr := r.check(resp); cerr != nil {
		rp.wrong++
	}
	return err
}

// pairOf resolves a read's setting and instances, and on a ring
// replays the owner lookup and, for a non-owner, the proxy hop: both
// instances re-inlined, the forwarded body encoded and decoded, and
// the owner's parse and hash.
func (rp *replayer) pairOf(root, k int, r *request, settingID, src, srcID, tgt, tgtID string, proxied bool) (*setting, *pde.Instance, *pde.Instance, string, string, error) {
	st := rp.byID[settingID]
	i, sid, err := rp.resolve(root, k, src, srcID)
	if err != nil {
		return nil, nil, nil, "", "", err
	}
	j, tid, err := rp.resolve(root, k, tgt, tgtID)
	if err != nil {
		return nil, nil, nil, "", "", err
	}
	if !proxied {
		return st, i, j, sid, tid, nil
	}
	rp.tr.do("cluster.owner", root, k, func() { rp.ring.Owner(cluster.Key(st.id, sid, tid)) })
	if r.owner {
		return st, i, j, sid, tid, nil
	}
	hop := rp.tr.begin("cluster.proxy", root, k)
	defer rp.tr.end(hop)
	var fwd []byte
	rp.tr.do("wire.encode", hop, k, func() {
		fwd, err = json.Marshal(client.SolveRequest{SettingID: st.id, Source: pde.FormatInstance(i), Target: pde.FormatInstance(j)})
	})
	if err != nil {
		return nil, nil, nil, "", "", err
	}
	var in client.SolveRequest
	rp.tr.do("wire.decode", hop, k, func() { err = json.Unmarshal(fwd, &in) })
	if err != nil {
		return nil, nil, nil, "", "", err
	}
	if _, _, err := rp.resolve(hop, k, in.Source, ""); err != nil {
		return nil, nil, nil, "", "", err
	}
	if in.Target != "" {
		if _, _, err := rp.resolve(hop, k, in.Target, ""); err != nil {
			return nil, nil, nil, "", "", err
		}
	}
	return st, i, j, sid, tid, nil
}

func (rp *replayer) solve(root, k int, r *request, in client.SolveRequest, proxied bool) (any, error) {
	st, i, j, sid, tid, err := rp.pairOf(root, k, r, in.SettingID, in.Source, in.SourceID, in.Target, in.TargetID, proxied)
	if err != nil {
		return nil, err
	}
	a, err := rp.artifact(root, k, st, i, j, sid, tid, st.generic)
	if err != nil {
		return nil, err
	}
	var ok bool
	if st.generic {
		rp.tr.do("core.verdict_generic", root, k, func() {
			ok, _, _, err = core.ExistsSolutionGenericFrom(st.s, i, j, a.(*core.CanonicalTarget), rp.sopts())
		})
	} else {
		rp.tr.do("core.verdict_tractable", root, k, func() {
			ok, _, err = core.ExistsSolutionTractableFrom(i, a.(*core.TractableTrace), rp.topts())
		})
	}
	return client.SolveResponse{Exists: ok}, err
}

// wireCertain converts a result to its wire answers.
func wireAnswers(res certain.Result) [][]string {
	var out [][]string
	for _, t := range res.Answers {
		row := make([]string, len(t))
		for c, v := range t {
			row[c] = v.String()
		}
		out = append(out, row)
	}
	return out
}

func (rp *replayer) certain(root, k int, r *request, in client.CertainRequest, proxied bool) (any, error) {
	st, i, j, sid, tid, err := rp.pairOf(root, k, r, in.SettingID, in.Source, in.SourceID, in.Target, in.TargetID, proxied)
	if err != nil {
		return nil, err
	}
	var q pde.UCQ
	rp.tr.do("depparse.query", root, k, func() { q, err = parseQuery(in.Query) })
	if err != nil {
		return nil, err
	}
	var res certain.Result
	if st.plan != nil {
		p, err := rp.plan(root, k, st, in.Query, q)
		if err != nil {
			return nil, err
		}
		rp.tr.do("qplan.eval", root, k, func() { res, err = p.Eval(i, j, pde.CompiledEvalOptions{Ctx: rp.ctx}) })
	} else {
		a, err := rp.artifact(root, k, st, i, j, sid, tid, true)
		if err != nil {
			return nil, err
		}
		opts := certain.Options{Solve: rp.sopts(), Canonical: a.(*core.CanonicalTarget)}
		rp.tr.do("certain.enum", root, k, func() {
			if q[0].IsBoolean() {
				res, err = certain.Boolean(st.s, i, j, q, opts)
			} else {
				res, err = certain.Answers(st.s, i, j, q, opts)
			}
		})
		rp.examined = append(rp.examined, float64(res.SolutionsExamined))
	}
	return client.CertainResponse{SolutionExists: res.SolutionExists, Certain: res.Certain, Answers: wireAnswers(res)}, err
}

func (rp *replayer) batch(root, k int, r *request, in client.CertainBatchRequest, proxied bool) (any, error) {
	st, i, j, _, _, err := rp.pairOf(root, k, r, in.SettingID, in.Source, in.SourceID, in.Target, in.TargetID, proxied)
	if err != nil {
		return nil, err
	}
	if st.plan == nil {
		return nil, fmt.Errorf("replay: batch over non-compiled setting %s", st.name)
	}
	qs := make([]pde.UCQ, len(in.Queries))
	rp.tr.do("depparse.query", root, k, func() {
		for n, text := range in.Queries {
			if qs[n], err = parseQuery(text); err != nil {
				return
			}
		}
	})
	if err != nil {
		return nil, err
	}
	var ex bool
	rp.tr.do("qplan.probe", root, k, func() { ex, err = st.plan.SolutionExists(i, j, pde.CompiledEvalOptions{Ctx: rp.ctx}) })
	if err != nil {
		return nil, err
	}
	out := client.CertainBatchResponse{Results: make([]client.CertainBatchResult, len(qs))}
	for n, q := range qs {
		p, err := rp.plan(root, k, st, in.Queries[n], q)
		if err != nil {
			return nil, err
		}
		var res certain.Result
		rp.tr.do("qplan.eval", root, k, func() { res, err = p.EvalGiven(ex, i, j, pde.CompiledEvalOptions{Ctx: rp.ctx}) })
		if err != nil {
			return nil, err
		}
		out.Results[n] = client.CertainBatchResult{Name: q[0].Name, SolutionExists: res.SolutionExists, Certain: res.Certain, Compiled: true, Answers: wireAnswers(res)}
	}
	return out, nil
}

func (rp *replayer) appendTo(root, k int, r *request, in client.AppendRequest) (any, error) {
	base := rp.insts[r.appendTo]
	if base == nil {
		return nil, fmt.Errorf("replay: unknown append base %s", r.appendTo)
	}
	var delta *pde.Instance
	var err error
	rp.tr.do("depparse.instance", root, k, func() { delta, err = pde.ParseInstance(in.Facts) })
	if err != nil {
		return nil, err
	}
	rp.facts = append(rp.facts, float64(delta.NumFacts()))
	var child *pde.Instance
	var childID string
	rp.tr.do("registry.hash", root, k, func() {
		child = union(base, delta)
		childID = hashText(pde.FormatInstance(child))
	})
	rp.insts[childID] = child
	out := client.AppendResponse{ID: childID, Parent: r.appendTo, Added: child.NumFacts() - base.NumFacts(), Facts: child.NumFacts()}
	// Migrate every artifact over the base.
	var keys []string
	for key := range rp.artifacts {
		if strings.Contains(key, "|"+r.appendTo+"|") {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	for _, key := range keys {
		parts := strings.Split(key, "|")
		st := rp.byID[parts[0]]
		var next any
		switch a := rp.artifacts[key].(type) {
		case *core.TractableTrace:
			rp.tr.do("core.resume_tractable", root, k, func() { next, _, _, err = core.ResumeCanonicalTractable(st.s, a, delta, rp.topts()) })
		case *core.CanonicalTarget:
			rp.tr.do("core.resume_generic", root, k, func() { next, _, _, err = core.ResumeCanonicalTarget(st.s, a, delta, rp.sopts()) })
		}
		if err != nil {
			return nil, fmt.Errorf("replay resume: %w", err)
		}
		rp.artifacts[strings.Replace(key, "|"+r.appendTo+"|", "|"+childID+"|", 1)] = next
		tgt := parts[2]
		rp.pending = append(rp.pending, func() { rp.encode(k, st, child, rp.insts[tgt], childID, tgt, next) })
		out.Migrated++
	}
	return out, nil
}
