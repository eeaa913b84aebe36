package server

// The cached solve paths. Solves resolve their instances to content
// IDs, fetch (or compute, once) the chased artifact for the
// (setting, I, J, kind) key, and run only the verdict phase against
// it. Appends migrate affected artifacts to the appended instance by
// resuming the chases with just the new facts (core.Resume*), so warm
// traffic keeps skipping the chase even as instances grow.

import (
	"context"
	"log/slog"
	"net/http"

	"repro/internal/certain"
	"repro/internal/core"
	"repro/internal/qplan"
	"repro/pde"
	"repro/pde/client"
)

// solvePair is a solve's resolved instances plus their cache IDs.
type solvePair struct {
	i, j         *pde.Instance
	srcID, tgtID string
}

// tractableOpts builds the Figure 3 options for one request.
func (s *Server) tractableOpts(ctx context.Context) core.TractableOptions {
	return core.TractableOptions{Parallelism: s.cfg.Parallelism, Ctx: ctx}
}

// solveOpts builds the generic-solver options for one request.
func (s *Server) solveOpts(ctx context.Context, maxNodes int64) core.SolveOptions {
	o := core.SolveOptions{Parallelism: s.cfg.Parallelism, Ctx: ctx, MaxNodes: s.cfg.MaxNodes}
	if maxNodes > 0 {
		o.MaxNodes = maxNodes
	}
	return o
}

// tractableBytes approximates a trace's heap footprint for the cache.
func tractableBytes(t *core.TractableTrace) int64 {
	n := instanceBytes(t.JCan) + instanceBytes(t.ICan) + int64(t.Blocks)*64 + 256
	if t.STResult != nil {
		n += instanceBytes(t.STResult.Instance) + instanceBytes(t.STResult.Start)
	}
	if t.TSResult != nil {
		n += instanceBytes(t.TSResult.Instance) + instanceBytes(t.TSResult.Start)
	}
	return n
}

// canonicalBytes approximates a canonical target's heap footprint. The
// prepared image search the first solve adds to the target is charged
// up front at its bound, the size of J_can, so the byte total stays
// right although the search is built lazily (and rebuilt after a
// decode, resume or migration).
func canonicalBytes(ct *core.CanonicalTarget) int64 {
	n := 2*instanceBytes(ct.JCan) + int64(256)
	if ct.STResult != nil {
		n += instanceBytes(ct.STResult.Instance) + instanceBytes(ct.STResult.Start)
	}
	if ct.TResult != nil {
		n += instanceBytes(ct.TResult.Instance) + instanceBytes(ct.TResult.Start)
	}
	return n
}

// tractableArtifact returns the cached (or freshly chased) Figure 3
// trace for the pair.
func (s *Server) tractableArtifact(ctx context.Context, c *Compiled, p *solvePair) (*core.TractableTrace, bool, error) {
	key := cacheKey(c.ID, p.srcID, p.tgtID, kindTractable)
	meta := cacheEntry{key: key, settingID: c.ID, srcID: p.srcID, tgtID: p.tgtID, kind: kindTractable, srcInst: p.i, tgtInst: p.j}
	v, hit, err := s.cache.getOrCompute(ctx, key, meta, func() (any, int64, error) {
		tr, err := core.ChaseCanonicalTractable(c.Setting, p.i, p.j, s.tractableOpts(ctx))
		if err != nil {
			return nil, 0, err
		}
		return tr, tractableBytes(tr), nil
	})
	if err != nil {
		return nil, false, err
	}
	if !hit {
		s.countOwnerCompute()
		s.snapshotFill(key)
	}
	return v.(*core.TractableTrace), hit, nil
}

// genericArtifact returns the cached (or freshly chased) canonical
// target for the pair.
func (s *Server) genericArtifact(ctx context.Context, c *Compiled, p *solvePair, sopts core.SolveOptions) (*core.CanonicalTarget, bool, error) {
	key := cacheKey(c.ID, p.srcID, p.tgtID, kindGeneric)
	meta := cacheEntry{key: key, settingID: c.ID, srcID: p.srcID, tgtID: p.tgtID, kind: kindGeneric, srcInst: p.i, tgtInst: p.j}
	v, hit, err := s.cache.getOrCompute(ctx, key, meta, func() (any, int64, error) {
		ct, err := core.ChaseCanonicalTarget(c.Setting, p.i, p.j, sopts)
		if err != nil {
			return nil, 0, err
		}
		return ct, canonicalBytes(ct), nil
	})
	if err != nil {
		return nil, false, err
	}
	if !hit {
		s.countOwnerCompute()
		s.snapshotFill(key)
	}
	return v.(*core.CanonicalTarget), hit, nil
}

// snapshotFill enqueues the freshly computed entry under key for the
// write-behind snapshot worker (no-op without a snapshot store).
func (s *Server) snapshotFill(key string) {
	if s.cfg.Snapshots == nil {
		return
	}
	if e, ok := s.cache.lookup(key); ok {
		s.saveAsync(e)
	}
}

// solveExists runs the SOL(P) verdict from the cached fixpoint,
// mirroring pde's strategy dispatch. The bool reports a cache hit.
func (s *Server) solveExists(ctx context.Context, c *Compiled, p *solvePair, witness bool, maxNodes int64) (pde.Result, bool, error) {
	if c.Strategy == string(pde.StrategyTractable) {
		trace, hit, err := s.tractableArtifact(ctx, c, p)
		if err != nil {
			return pde.Result{}, false, err
		}
		topts := s.tractableOpts(ctx)
		if witness {
			sol, _, err := core.FindSolutionTractableFrom(p.i, trace, topts)
			if err != nil {
				return pde.Result{}, hit, err
			}
			return pde.Result{Exists: sol != nil, Solution: sol, Strategy: pde.StrategyTractable}, hit, nil
		}
		ok, _, err := core.ExistsSolutionTractableFrom(p.i, trace, topts)
		if err != nil {
			return pde.Result{}, hit, err
		}
		return pde.Result{Exists: ok, Strategy: pde.StrategyTractable}, hit, nil
	}

	sopts := s.solveOpts(ctx, maxNodes)
	ct, hit, err := s.genericArtifact(ctx, c, p, sopts)
	if err != nil {
		return pde.Result{}, false, err
	}
	ok, wit, stats, err := core.ExistsSolutionGenericFrom(c.Setting, p.i, p.j, ct, sopts)
	if err != nil {
		return pde.Result{}, hit, err
	}
	res := pde.Result{Exists: ok, Solution: wit, Strategy: pde.StrategyGeneric}
	if stats != nil {
		res.Nodes = stats.Nodes
	}
	return res, hit, nil
}

// planOpts builds the compiled-plan evaluation options for one request.
func (s *Server) planOpts(ctx context.Context) qplan.EvalOptions {
	return qplan.EvalOptions{Parallelism: s.cfg.Parallelism, Ctx: ctx}
}

// certainOutcome is one certain-answers result plus how it was
// produced: from a compiled plan (compiled, no chase at all), or by
// solution enumeration (cacheHit reports whether the chase was cached;
// fallback is the non-empty reason when a compiled setting declined).
type certainOutcome struct {
	res      certain.Result
	cacheHit bool
	compiled bool
	fallback string
}

// solveCertain answers one certain-answers request: the compiled plan
// path when the setting is in the compilable fragment, the
// enumeration path from the cached canonical target otherwise (with
// the fallback reason counted and surfaced).
func (s *Server) solveCertain(ctx context.Context, c *Compiled, p *solvePair, q pde.UCQ) (certainOutcome, error) {
	reason := c.PlanFallback
	if c.Plan != nil {
		plan, cerr := s.queryPlan(c, q)
		if cerr == nil {
			res, err := plan.Eval(p.i, p.j, s.planOpts(ctx))
			if err == nil {
				return certainOutcome{res: res, compiled: true}, nil
			}
			if reason = pde.CompiledFallbackReason(err); reason == "" {
				return certainOutcome{}, err
			}
		} else if reason = pde.CompiledFallbackReason(cerr); reason == "" {
			return certainOutcome{}, cerr
		}
	}
	s.met.compiledFallback(reason).Add(1)
	res, hit, err := s.enumerateCertain(ctx, c, p, q, nil)
	return certainOutcome{res: res, cacheHit: hit, fallback: reason}, err
}

// queryPlan fetches (or compiles and caches) the compiled plan for one
// query of a compilable setting, counting plan-cache traffic.
func (s *Server) queryPlan(c *Compiled, q pde.UCQ) (*pde.Plan, error) {
	plan, hit, err := s.plans.get(c, q)
	if hit {
		s.met.planHits.Add(1)
	} else {
		s.met.planMisses.Add(1)
	}
	return plan, err
}

// enumerateCertain runs the enumeration path from the cached canonical
// target. Certain answers enumerate image solutions, so this uses the
// generic artifact even for tractable settings. A non-nil ct reuses an
// artifact the caller already fetched (batch mode).
func (s *Server) enumerateCertain(ctx context.Context, c *Compiled, p *solvePair, q pde.UCQ, ct *core.CanonicalTarget) (certain.Result, bool, error) {
	sopts := s.solveOpts(ctx, 0)
	hit := true
	if ct == nil {
		var err error
		ct, hit, err = s.genericArtifact(ctx, c, p, sopts)
		if err != nil {
			return certain.Result{}, false, err
		}
	}
	copts := certain.Options{Solve: sopts, Canonical: ct}
	if q[0].IsBoolean() {
		res, err := certain.Boolean(c.Setting, p.i, p.j, q, copts)
		return res, hit, err
	}
	res, err := certain.Answers(c.Setting, p.i, p.j, q, copts)
	return res, hit, err
}

// fitsSetting reports whether every fact of the batch belongs to the
// setting's source or target schema — the precondition for migrating a
// cache entry of that setting across the append.
func fitsSetting(batch *pde.Instance, st *pde.Setting) bool {
	for _, f := range batch.Facts() {
		if ar, ok := st.Source.Arity(f.Rel); ok && ar == len(f.Args) {
			continue
		}
		if ar, ok := st.Target.Arity(f.Rel); ok && ar == len(f.Args) {
			continue
		}
		return false
	}
	return true
}

func (s *Server) handleInstanceRegister(w http.ResponseWriter, r *http.Request) {
	var req client.RegisterInstanceRequest
	if !decode(w, r, &req) {
		return
	}
	si, err := compileInstance(req.Instance)
	if err != nil {
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "parsing instance: %v", err)
		return
	}
	si, created, _ := s.inst.insert(si)
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "instance registered",
		slog.String("id", si.ID), slog.Int("facts", si.Facts), slog.Bool("created", created))
	writeJSON(w, status, client.RegisterInstanceResponse{ID: si.ID, Facts: si.Facts, Created: created})
}

func (s *Server) handleInstanceList(w http.ResponseWriter, r *http.Request) {
	all := s.inst.List()
	out := client.ListInstancesResponse{Instances: make([]client.InstanceSummary, 0, len(all))}
	for _, si := range all {
		out.Instances = append(out.Instances, client.InstanceSummary{ID: si.ID, Facts: si.Facts, Parent: si.Parent})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleInstanceEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.inst.Evict(id) {
		writeErr(w, http.StatusNotFound, client.CodeNotFound, "instance %q is not registered", id)
		return
	}
	s.cache.evictMatching(func(e *cacheEntry) bool { return e.srcID == id || e.tgtID == id })
	writeJSON(w, http.StatusOK, map[string]string{"evicted": id})
}

func (s *Server) handleInstanceAppend(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	var req client.AppendRequest
	if !decode(w, r, &req) {
		return
	}
	base := s.inst.Get(id)
	if base == nil {
		writeErr(w, http.StatusNotFound, client.CodeNotFound, "instance %q is not registered", id)
		return
	}
	batch, err := pde.ParseInstance(req.Facts)
	if err != nil {
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "parsing facts: %v", err)
		return
	}
	// Migration resumes chases, so it runs under admission control and
	// the request deadline like any solve.
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.DeadlineMillis))
	defer cancel()
	release := s.admit(ctx, w)
	if release == nil {
		return
	}
	defer release()

	child, delta, created := s.inst.Append(base, batch)
	out := client.AppendResponse{
		ID:      child.ID,
		Parent:  base.ID,
		Added:   delta.NumFacts(),
		Facts:   child.Facts,
		Created: created,
	}
	if delta.NumFacts() > 0 {
		out.Migrated, out.Resumed, out.Fallbacks = s.migrateCache(ctx, base.ID, child, delta)
	}
	s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "instance appended",
		slog.String("base", base.ID), slog.String("id", child.ID),
		slog.Int("added", out.Added), slog.Int("migrated", out.Migrated),
		slog.Int("resumed", out.Resumed), slog.Int("fallbacks", out.Fallbacks))
	writeJSON(w, http.StatusOK, out)
}

// migrateCache carries every cache entry referencing the base instance
// over to the appended instance by resuming its chases with the delta.
// Entries whose setting is gone or whose schema the delta does not fit
// are skipped (the new instance simply starts cold for them); resume
// errors (deadline, budget) likewise skip the entry.
func (s *Server) migrateCache(ctx context.Context, baseID string, child *StoredInstance, delta *pde.Instance) (migrated, resumes, fallbacks int) {
	for _, e := range s.cache.entries() {
		if e.srcID != baseID && e.tgtID != baseID {
			continue
		}
		c := s.reg.Get(e.settingID)
		if c == nil || !fitsSetting(delta, c.Setting) {
			continue
		}
		newSrc, newTgt := e.srcID, e.tgtID
		newSrcInst, newTgtInst := e.srcInst, e.tgtInst
		if newSrc == baseID {
			newSrc, newSrcInst = child.ID, child.Inst
		}
		if newTgt == baseID {
			newTgt, newTgtInst = child.ID, child.Inst
		}
		meta := cacheEntry{
			key:       cacheKey(e.settingID, newSrc, newTgt, e.kind),
			settingID: e.settingID,
			srcID:     newSrc,
			tgtID:     newTgt,
			kind:      e.kind,
			srcInst:   newSrcInst,
			tgtInst:   newTgtInst,
		}
		var resumed bool
		var reason string
		switch e.kind {
		case kindTractable:
			next, r, why, err := core.ResumeCanonicalTractable(c.Setting, e.value.(*core.TractableTrace), delta, s.tractableOpts(ctx))
			if err != nil {
				s.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "cache migration failed",
					slog.String("setting", e.settingID), slog.String("err", err.Error()))
				continue
			}
			s.cache.put(meta, next, tractableBytes(next))
			resumed, reason = r, why
		case kindGeneric:
			next, r, why, err := core.ResumeCanonicalTarget(c.Setting, e.value.(*core.CanonicalTarget), delta, s.solveOpts(ctx, 0))
			if err != nil {
				s.cfg.Logger.LogAttrs(ctx, slog.LevelWarn, "cache migration failed",
					slog.String("setting", e.settingID), slog.String("err", err.Error()))
				continue
			}
			s.cache.put(meta, next, canonicalBytes(next))
			resumed, reason = r, why
		default:
			continue
		}
		migrated++
		s.snapshotFill(meta.key)
		if resumed {
			resumes++
			s.met.cacheResumes.Add(1)
		} else {
			fallbacks++
			s.met.fallback(reason).Add(1)
		}
	}
	return migrated, resumes, fallbacks
}

// solveCertainBatch answers many queries over one instance pair,
// sharing the per-pair work: the setting's solution probes run at most
// once (every compiled plan evaluates against that verdict), and the
// queries that fall off the compiled path share one chased artifact.
func (s *Server) solveCertainBatch(ctx context.Context, c *Compiled, p *solvePair, queries []pde.UCQ) (client.CertainBatchResponse, error) {
	out := client.CertainBatchResponse{Results: make([]client.CertainBatchResult, len(queries))}

	// Lazy shared state: neither the probes nor the chase run unless
	// some query needs them.
	var (
		probesDone bool
		solExists  bool
		probeErr   error
		ct         *core.CanonicalTarget
	)
	probes := func() (bool, error) {
		if !probesDone {
			probesDone = true
			solExists, probeErr = c.Plan.SolutionExists(p.i, p.j, s.planOpts(ctx))
		}
		return solExists, probeErr
	}
	artifact := func() (*core.CanonicalTarget, error) {
		if ct == nil {
			a, hit, err := s.genericArtifact(ctx, c, p, s.solveOpts(ctx, 0))
			if err != nil {
				return nil, err
			}
			ct, out.CacheHit = a, hit
		}
		return ct, nil
	}

	for n, q := range queries {
		reason := c.PlanFallback
		if c.Plan != nil {
			plan, cerr := s.queryPlan(c, q)
			if cerr == nil {
				ex, err := probes()
				if err == nil {
					var res certain.Result
					if res, err = plan.EvalGiven(ex, p.i, p.j, s.planOpts(ctx)); err == nil {
						out.Results[n] = batchResult(q, res, true, "")
						continue
					}
				}
				if reason = pde.CompiledFallbackReason(err); reason == "" {
					return out, err
				}
			} else if reason = pde.CompiledFallbackReason(cerr); reason == "" {
				return out, cerr
			}
		}
		s.met.compiledFallback(reason).Add(1)
		a, err := artifact()
		if err != nil {
			return out, err
		}
		res, _, err := s.enumerateCertain(ctx, c, p, q, a)
		if err != nil {
			return out, err
		}
		out.Results[n] = batchResult(q, res, false, reason)
	}
	return out, nil
}

// batchResult converts one certain-answers result to its wire form.
func batchResult(q pde.UCQ, res certain.Result, compiled bool, fallback string) client.CertainBatchResult {
	r := client.CertainBatchResult{
		Name:           q[0].Name,
		SolutionExists: res.SolutionExists,
		Certain:        res.Certain,
		Compiled:       compiled,
		FallbackReason: fallback,
	}
	for _, t := range res.Answers {
		row := make([]string, len(t))
		for k, v := range t {
			row[k] = v.String()
		}
		r.Answers = append(r.Answers, row)
	}
	return r
}
