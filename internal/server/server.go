package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/snap"
	"repro/pde"
	"repro/pde/client"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// Logger receives one structured record per request; nil discards.
	Logger *slog.Logger
	// MaxInFlight bounds concurrently executing solves (admission
	// control); 0 means GOMAXPROCS.
	MaxInFlight int
	// MaxQueue bounds solves waiting for an in-flight slot; beyond it
	// requests are shed with 429 immediately. 0 means 2×MaxInFlight;
	// negative means no queue (shed as soon as all slots are busy).
	MaxQueue int
	// DefaultDeadline applies to solves that don't send deadline_ms;
	// 0 means 30s.
	DefaultDeadline time.Duration
	// MaxDeadline caps client-requested deadlines; 0 means 5m.
	MaxDeadline time.Duration
	// MaxNodes is the server-wide generic-solver budget applied when a
	// request doesn't set max_nodes; 0 means unbounded.
	MaxNodes int64
	// Parallelism is handed to every solve (pde.Options.Parallelism);
	// 0 means GOMAXPROCS. Deadlines are the primary isolation knob; this
	// bounds how many cores one request may burn.
	Parallelism int
	// CacheMaxBytes bounds the approximate bytes held by the
	// chased-result cache; 0 means 256 MiB, negative means no byte
	// bound.
	CacheMaxBytes int64
	// CacheMaxEntries bounds the number of cached chased artifacts;
	// 0 means 1024, negative disables the cache entirely.
	CacheMaxEntries int
	// Snapshots, when non-nil, persists completed cache entries to disk
	// (write-behind) and enables warm starts (LoadSnapshots) and peer
	// warm transfer (WarmFrom, the /v1/cache endpoints). nil disables
	// persistence.
	Snapshots *snap.Store
	// Cluster, when non-nil, shards solve traffic across a fleet of
	// daemons over a consistent-hash ring (see cluster.go). nil serves
	// single-node.
	Cluster *ClusterConfig
}

func (c Config) withDefaults() Config {
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	switch {
	case c.MaxQueue == 0:
		c.MaxQueue = 2 * c.MaxInFlight
	case c.MaxQueue < 0:
		c.MaxQueue = 0
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.CacheMaxBytes == 0 {
		c.CacheMaxBytes = 256 << 20
	}
	if c.CacheMaxEntries == 0 {
		c.CacheMaxEntries = 1024
	}
	return c
}

// Server is the pdxd HTTP server: a compiled-setting registry plus the
// /v1 JSON API. Create with New, mount Handler on an http.Server.
type Server struct {
	cfg      Config
	reg      *Registry
	inst     *InstanceRegistry
	cache    *chaseCache
	plans    *planCache
	met      *metrics
	sem      chan struct{} // admission slots, cap MaxInFlight
	mux      *http.ServeMux
	draining atomic.Bool
	cluster  *clusterState // nil without cfg.Cluster

	// Write-behind snapshot machinery (nil/idle without cfg.Snapshots).
	snapQ      chan *cacheEntry
	snapDone   chan struct{}
	snapMu     sync.Mutex // guards snapClosed against concurrent saveAsync/Close
	snapClosed bool
	closeOnce  sync.Once
}

// New builds a Server with empty registries and an empty chase cache.
// It panics on an invalid cluster config (empty self or peer URL) — a
// deployment error callers should validate before constructing the
// server.
func New(cfg Config) *Server {
	s := &Server{
		cfg:  cfg.withDefaults(),
		reg:  NewRegistry(),
		inst: NewInstanceRegistry(),
		met:  newMetrics(),
	}
	s.cache = newChaseCache(s.cfg.CacheMaxBytes, s.cfg.CacheMaxEntries, s.met)
	s.plans = newPlanCache(planCacheMaxEntries)
	s.sem = make(chan struct{}, s.cfg.MaxInFlight)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/settings", s.route("settings-register", s.handleRegister))
	s.mux.HandleFunc("GET /v1/settings", s.route("settings-list", s.handleList))
	s.mux.HandleFunc("DELETE /v1/settings/{id}", s.route("settings-evict", s.handleEvict))
	s.mux.HandleFunc("POST /v1/instances", s.route("instances-register", s.handleInstanceRegister))
	s.mux.HandleFunc("GET /v1/instances", s.route("instances-list", s.handleInstanceList))
	s.mux.HandleFunc("DELETE /v1/instances/{id}", s.route("instances-evict", s.handleInstanceEvict))
	s.mux.HandleFunc("POST /v1/instances/{id}/append", s.route("instances-append", s.handleInstanceAppend))
	s.mux.HandleFunc("POST /v1/exists-solution", s.route("exists-solution", s.handleExists))
	s.mux.HandleFunc("POST /v1/certain-answers", s.route("certain-answers", s.handleCertain))
	s.mux.HandleFunc("POST /v1/certain-answers/batch", s.route("certain-answers-batch", s.handleCertainBatch))
	s.mux.HandleFunc("POST /v1/classify", s.route("classify", s.handleClassify))
	s.mux.HandleFunc("POST /v1/vet", s.route("vet", s.handleVet))
	s.mux.HandleFunc("GET /v1/cache/keys", s.route("cache-keys", s.handleCacheKeys))
	s.mux.HandleFunc("GET /v1/cache/entries/{key}", s.route("cache-entry", s.handleCacheEntry))
	s.mux.HandleFunc("PUT /v1/cache/entries/{key}", s.route("cache-push", s.handleCachePush))
	s.mux.HandleFunc("GET /v1/cluster", s.route("cluster-status", s.handleClusterStatus))
	s.mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealth))
	s.mux.HandleFunc("GET /metrics", s.route("metrics", s.handleMetrics))
	if s.cfg.Snapshots != nil {
		s.snapQ = make(chan *cacheEntry, snapQueueLen)
		s.snapDone = make(chan struct{})
		go s.snapWorker()
	}
	if s.cfg.Cluster != nil {
		st, err := newClusterState(*s.cfg.Cluster)
		if err != nil {
			panic("server: invalid cluster config: " + err.Error())
		}
		s.cluster = st
		go s.clusterMonitor()
	}
	return s
}

// Handler returns the root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the compiled-setting registry (for preloading).
func (s *Server) Registry() *Registry { return s.reg }

// Instances exposes the instance registry (for preloading and tests).
func (s *Server) Instances() *InstanceRegistry { return s.inst }

// InFlight returns the number of solves currently executing.
func (s *Server) InFlight() int { return int(s.met.inFlight.Load()) }

// StartDrain makes admission reject new solves with 503 while in-flight
// ones finish. Call before http.Server.Shutdown so long solves stop
// being admitted the moment the drain begins.
func (s *Server) StartDrain() { s.draining.Store(true) }

// statusWriter captures the status code for logs and metrics, and
// whether the response has started.
type statusWriter struct {
	http.ResponseWriter
	status  int
	started bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.started = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.started = true
	return w.ResponseWriter.Write(p)
}

// route wraps a handler with panic containment, request logging and
// metrics.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		s.serveContained(name, h, sw, r)
		d := time.Since(start)
		s.met.observe(name, sw.status, d)
		s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
			slog.String("route", name),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", sw.status),
			slog.Int64("duration_ms", d.Milliseconds()),
			slog.String("remote", r.RemoteAddr),
		)
	}
}

// serveContained runs the handler and turns a panic into a typed 500
// (client.CodeInternal), counted in pdxd_panics_total and logged with
// its stack, so one bad request costs one error response instead of a
// dropped connection. http.ErrAbortHandler is a deliberate abort and
// propagates to net/http untouched; so does a panic after the response
// has started, re-raised as ErrAbortHandler because a 500 can no
// longer be sent and a truncated response must not look complete.
func (s *Server) serveContained(name string, h http.HandlerFunc, w *statusWriter, r *http.Request) {
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		if v == http.ErrAbortHandler {
			panic(v)
		}
		s.met.panics.Add(1)
		s.cfg.Logger.LogAttrs(r.Context(), slog.LevelError, "handler panic",
			slog.String("route", name),
			slog.String("panic", fmt.Sprint(v)),
			slog.String("stack", string(debug.Stack())),
		)
		if w.started {
			panic(http.ErrAbortHandler)
		}
		writeErr(w, http.StatusInternalServerError, client.CodeInternal, "internal error in %s", name)
	}()
	h(w, r)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // client gone; nothing to do
}

func writeErr(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, map[string]*client.APIError{
		"error": {Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

// decode reads a JSON body with a size cap.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	data, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err == nil {
		err = json.Unmarshal(data, v)
	}
	if err != nil {
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "decoding request body: %v", err)
		return false
	}
	return true
}

// admit acquires an in-flight slot, queueing up to MaxQueue waiters.
// It returns a release function, or writes the shed/timeout response
// and returns nil.
func (s *Server) admit(ctx context.Context, w http.ResponseWriter) func() {
	if s.draining.Load() {
		s.met.shed.Add(1)
		writeErr(w, http.StatusServiceUnavailable, client.CodeShuttingDown, "daemon is draining")
		return nil
	}
	select {
	case s.sem <- struct{}{}:
	default:
		if s.met.queueDepth.Add(1) > int64(s.cfg.MaxQueue) {
			s.met.queueDepth.Add(-1)
			s.met.shed.Add(1)
			writeErr(w, http.StatusTooManyRequests, client.CodeOverloaded,
				"admission queue full (%d in flight, %d queued); retry later", s.cfg.MaxInFlight, s.cfg.MaxQueue)
			return nil
		}
		select {
		case s.sem <- struct{}{}:
			s.met.queueDepth.Add(-1)
		case <-ctx.Done():
			s.met.queueDepth.Add(-1)
			s.met.shed.Add(1)
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				writeErr(w, http.StatusGatewayTimeout, client.CodeDeadlineExceeded, "deadline expired while queued for admission")
			} else {
				writeErr(w, http.StatusServiceUnavailable, client.CodeCanceled, "request canceled while queued for admission")
			}
			return nil
		}
	}
	s.met.inFlight.Add(1)
	return func() {
		s.met.inFlight.Add(-1)
		<-s.sem
	}
}

// deadline computes the per-request solve budget.
func (s *Server) deadline(requestedMillis int64) time.Duration {
	d := s.cfg.DefaultDeadline
	if requestedMillis > 0 {
		d = time.Duration(requestedMillis) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d
}

// solveError maps a solve failure onto an HTTP status and error code.
func solveError(err error) (int, string) {
	switch {
	case errors.Is(err, pde.ErrCanceled) && errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, client.CodeDeadlineExceeded
	case errors.Is(err, pde.ErrCanceled):
		return http.StatusServiceUnavailable, client.CodeCanceled
	case errors.Is(err, pde.ErrSearchBudget), errors.Is(err, pde.ErrChaseBudget):
		return http.StatusUnprocessableEntity, client.CodeUnprocessable
	default:
		return http.StatusBadRequest, client.CodeBadRequest
	}
}

// resolveInstance resolves one side of a solve request: inline fact
// text XOR a registered instance ID. Inline instances are canonicalized
// and hashed so they share the chase cache with registered ones; an
// empty side is the empty instance.
func (s *Server) resolveInstance(w http.ResponseWriter, side, inline, byID string) (*pde.Instance, string, bool) {
	switch {
	case inline != "" && byID != "":
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "set either %s or %s_id, not both", side, side)
		return nil, "", false
	case byID != "":
		si := s.inst.Get(byID)
		if si == nil {
			writeErr(w, http.StatusNotFound, client.CodeNotFound, "instance %q is not registered", byID)
			return nil, "", false
		}
		return si.Inst, si.ID, true
	default:
		inst, err := pde.ParseInstance(inline)
		if err != nil {
			writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "parsing %s instance: %v", side, err)
			return nil, "", false
		}
		return inst, instanceID(pde.FormatInstance(inst)), true
	}
}

// solveInput resolves the shared preamble of the solve endpoints:
// setting lookup, instance resolution, and schema validation.
func (s *Server) solveInput(w http.ResponseWriter, settingID, source, sourceID, target, targetID string) (*Compiled, *solvePair, bool) {
	c := s.reg.Get(settingID)
	if c == nil {
		writeErr(w, http.StatusNotFound, client.CodeNotFound, "setting %q is not registered", settingID)
		return nil, nil, false
	}
	i, srcID, ok := s.resolveInstance(w, "source", source, sourceID)
	if !ok {
		return nil, nil, false
	}
	j, tgtID, ok := s.resolveInstance(w, "target", target, targetID)
	if !ok {
		return nil, nil, false
	}
	if err := i.ValidateAgainst(c.Setting.Source); err != nil {
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "source instance: %v", err)
		return nil, nil, false
	}
	if err := j.ValidateAgainst(c.Setting.Target); err != nil {
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "target instance: %v", err)
		return nil, nil, false
	}
	return c, &solvePair{i: i, j: j, srcID: srcID, tgtID: tgtID}, true
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req client.RegisterRequest
	if !decode(w, r, &req) {
		return
	}
	c, created, err := s.reg.Register(req.Setting)
	if err != nil {
		// A setting that parses but fails vet is well-formed input the
		// analyzer refuses — 422; anything unparsable is 400.
		status, code := http.StatusBadRequest, client.CodeBadRequest
		if _, perr := pde.ParseSetting(req.Setting); perr == nil {
			status, code = http.StatusUnprocessableEntity, client.CodeUnprocessable
		}
		writeErr(w, status, code, "registering setting: %v", err)
		return
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	if created {
		s.clusterBroadcastSetting(r, c)
	}
	s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "setting registered",
		slog.String("id", c.ID), slog.String("name", c.Name),
		slog.String("strategy", c.Strategy), slog.Bool("created", created))
	writeJSON(w, status, client.RegisterResponse{
		ID:       c.ID,
		Name:     c.Name,
		InCtract: c.Report.InCtract,
		Strategy: c.Strategy,
		Warnings: c.Warnings,
		Created:  created,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	all := s.reg.List()
	out := client.ListSettingsResponse{Settings: make([]client.SettingSummary, 0, len(all))}
	for _, c := range all {
		out.Settings = append(out.Settings, client.SettingSummary{
			ID: c.ID, Name: c.Name, InCtract: c.Report.InCtract, Strategy: c.Strategy,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleEvict(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.reg.Evict(id) {
		writeErr(w, http.StatusNotFound, client.CodeNotFound, "setting %q is not registered", id)
		return
	}
	s.cache.evictMatching(func(e *cacheEntry) bool { return e.settingID == id })
	s.plans.evictSetting(id)
	writeJSON(w, http.StatusOK, map[string]string{"evicted": id})
}

func (s *Server) handleExists(w http.ResponseWriter, r *http.Request) {
	var req client.SolveRequest
	if !decode(w, r, &req) {
		return
	}
	c, p, ok := s.solveInput(w, req.SettingID, req.Source, req.SourceID, req.Target, req.TargetID)
	if !ok {
		return
	}
	// Cluster routing happens before admission: a proxied solve spends
	// this shard's time waiting on the owner, not computing.
	if owner, cl := s.clusterOwner(r, c.ID, p.srcID, p.tgtID); cl != nil {
		if s.proxyExists(w, r, owner, cl, c, p, req) {
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.DeadlineMillis))
	defer cancel()
	release := s.admit(ctx, w)
	if release == nil {
		return
	}
	defer release()

	start := time.Now()
	res, hit, err := s.solveExists(ctx, c, p, req.Witness, req.MaxNodes)
	s.met.nodes.Add(res.Nodes)
	if err != nil {
		status, code := solveError(err)
		writeErr(w, status, code, "solve: %v", err)
		return
	}
	out := client.SolveResponse{
		Exists:        res.Exists,
		Strategy:      string(res.Strategy),
		Nodes:         res.Nodes,
		CacheHit:      hit,
		ElapsedMillis: time.Since(start).Milliseconds(),
	}
	if req.Witness && res.Solution != nil {
		out.Solution = pde.FormatInstance(res.Solution)
	}
	s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "solve",
		slog.String("setting", c.ID), slog.Bool("exists", res.Exists),
		slog.String("strategy", out.Strategy), slog.Int64("nodes", res.Nodes),
		slog.Bool("cache_hit", hit), slog.Int64("elapsed_ms", out.ElapsedMillis))
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleCertain(w http.ResponseWriter, r *http.Request) {
	var req client.CertainRequest
	if !decode(w, r, &req) {
		return
	}
	c, p, ok := s.solveInput(w, req.SettingID, req.Source, req.SourceID, req.Target, req.TargetID)
	if !ok {
		return
	}
	qs, err := pde.ParseQueries(req.Query)
	if err != nil || len(qs) != 1 {
		if err == nil {
			err = fmt.Errorf("want exactly one query, got %d", len(qs))
		}
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "parsing query: %v", err)
		return
	}
	if err := qs[0].Validate(c.Setting.Target); err != nil {
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "query: %v", err)
		return
	}
	if owner, cl := s.clusterOwner(r, c.ID, p.srcID, p.tgtID); cl != nil {
		if s.proxyCertain(w, r, owner, cl, c, p, req) {
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.DeadlineMillis))
	defer cancel()
	release := s.admit(ctx, w)
	if release == nil {
		return
	}
	defer release()

	start := time.Now()
	oc, err := s.solveCertain(ctx, c, p, qs[0])
	if err != nil {
		status, code := solveError(err)
		writeErr(w, status, code, "certain answers: %v", err)
		return
	}
	out := client.CertainResponse{
		SolutionExists:    oc.res.SolutionExists,
		Certain:           oc.res.Certain,
		SolutionsExamined: oc.res.SolutionsExamined,
		CacheHit:          oc.cacheHit,
		Compiled:          oc.compiled,
		FallbackReason:    oc.fallback,
		ElapsedMillis:     time.Since(start).Milliseconds(),
	}
	for _, t := range oc.res.Answers {
		row := make([]string, len(t))
		for k, v := range t {
			row[k] = v.String()
		}
		out.Answers = append(out.Answers, row)
	}
	s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "certain",
		slog.String("setting", c.ID), slog.Int("answers", len(out.Answers)),
		slog.Bool("compiled", oc.compiled),
		slog.Int64("elapsed_ms", out.ElapsedMillis))
	writeJSON(w, http.StatusOK, out)
}

// maxBatchQueries bounds one batch request; beyond it the request is
// rejected up front rather than admitted and half-served.
const maxBatchQueries = 4096

func (s *Server) handleCertainBatch(w http.ResponseWriter, r *http.Request) {
	var req client.CertainBatchRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "batch has no queries")
		return
	}
	if len(req.Queries) > maxBatchQueries {
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "batch has %d queries, max %d", len(req.Queries), maxBatchQueries)
		return
	}
	c, p, ok := s.solveInput(w, req.SettingID, req.Source, req.SourceID, req.Target, req.TargetID)
	if !ok {
		return
	}
	queries := make([]pde.UCQ, len(req.Queries))
	for n, text := range req.Queries {
		qs, err := pde.ParseQueries(text)
		if err != nil || len(qs) != 1 {
			if err == nil {
				err = fmt.Errorf("want exactly one query, got %d", len(qs))
			}
			writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "parsing query %d: %v", n, err)
			return
		}
		if err := qs[0].Validate(c.Setting.Target); err != nil {
			writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "query %d: %v", n, err)
			return
		}
		queries[n] = qs[0]
	}
	if owner, cl := s.clusterOwner(r, c.ID, p.srcID, p.tgtID); cl != nil {
		if s.proxyCertainBatch(w, r, owner, cl, c, p, req) {
			return
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.deadline(req.DeadlineMillis))
	defer cancel()
	release := s.admit(ctx, w)
	if release == nil {
		return
	}
	defer release()

	start := time.Now()
	out, err := s.solveCertainBatch(ctx, c, p, queries)
	if err != nil {
		status, code := solveError(err)
		writeErr(w, status, code, "certain answers: %v", err)
		return
	}
	out.ElapsedMillis = time.Since(start).Milliseconds()
	s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "certain batch",
		slog.String("setting", c.ID), slog.Int("queries", len(queries)),
		slog.Int64("elapsed_ms", out.ElapsedMillis))
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	var req client.ClassifyRequest
	if !decode(w, r, &req) {
		return
	}
	var report pde.CtractReport
	switch {
	case req.SettingID != "" && req.Setting != "":
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "set either setting_id or setting, not both")
		return
	case req.SettingID != "":
		c := s.reg.Get(req.SettingID)
		if c == nil {
			writeErr(w, http.StatusNotFound, client.CodeNotFound, "setting %q is not registered", req.SettingID)
			return
		}
		report = c.Report
	case req.Setting != "":
		st, err := pde.ParseSetting(req.Setting)
		if err != nil {
			writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "parsing setting: %v", err)
			return
		}
		report = pde.Classify(st)
	default:
		writeErr(w, http.StatusBadRequest, client.CodeBadRequest, "set setting_id or setting")
		return
	}
	writeJSON(w, http.StatusOK, client.ClassifyResponse{
		InCtract:   report.InCtract,
		Cond1:      report.Cond1,
		Cond21:     report.Cond21,
		Cond22:     report.Cond22,
		Violations: report.Violations,
		Summary:    report.Summary(),
	})
}

func (s *Server) handleVet(w http.ResponseWriter, r *http.Request) {
	var req client.VetRequest
	if !decode(w, r, &req) {
		return
	}
	file := req.File
	if file == "" {
		file = "<request>"
	}
	report := pde.Vet(req.Setting, file)
	errs, warns, infos := report.Counts()
	out := client.VetResponse{File: report.File, Errors: errs, Warnings: warns, Infos: infos}
	for _, d := range report.Diagnostics {
		out.Diagnostics = append(out.Diagnostics, client.Diagnostic{
			Check:    d.Check,
			Severity: string(d.Severity),
			File:     d.File,
			Line:     d.Line,
			Col:      d.Col,
			Message:  d.Message,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, client.HealthResponse{
		Status:    status,
		Settings:  s.reg.Len(),
		Instances: s.inst.Len(),
		InFlight:  s.InFlight(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	entries, bytes := s.cache.stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = io.WriteString(w, s.met.render(s.reg.Len(), s.inst.Len(), entries, bytes))
	if s.cluster != nil {
		fmt.Fprintf(w, "# HELP pdxd_cluster_peers_alive Ring members this shard currently sees as up (including itself).\n# TYPE pdxd_cluster_peers_alive gauge\npdxd_cluster_peers_alive %d\n",
			s.cluster.ring.AliveCount())
	}
}
