package main

// One run of one workload: prepare, set up, warm, drive, measure, and
// (traced runs) replay a sample in-process.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/pde/client"
)

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

// result is a run's outcome: the last line of the benchmark's output.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

func (r *result) set(name string, v float64) {
	for _, m := range append(append(append(append([]metricSpec{}, endToEnd...), reportOnly...), perLayer...), clusterLayer...) {
		if m.Name == name {
			r.metrics = append(r.metrics, metric{name: name, unit: m.Unit, value: v})
			return
		}
	}
	panic("unknown metric " + name)
}

func (r *result) get(name string) float64 {
	for _, m := range r.metrics {
		if m.name == name {
			return m.value
		}
	}
	return math.NaN()
}

// jsonLine renders the result line with the metrics of one table.
func (r *result) jsonLine(table []metricSpec) ([]byte, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]val{}
	for _, m := range table {
		v := r.get(m.Name)
		if math.IsNaN(v) {
			return nil, fmt.Errorf("metric %s missing", m.Name)
		}
		ms[m.Name] = val{Value: v, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
}

// percentile returns the p-quantile of xs by linear interpolation
// between order statistics; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (h-float64(lo))*(s[hi]-s[lo])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// numSlices is the number of slices the closed loop is cut into.
// Throughput is taken per slice and reported as the upper quartile over
// slices, so slices disturbed by a garbage collection or a noisy
// neighbour do not move a run's figure.
const numSlices = 10

// inputMedian returns one operation's typical open-loop latency (ms):
// the geometric mean of each input's median latency (an input is a
// pair, or a growing lineage), weighted by the input's share of the
// operation's correct answers. A workload mixes inputs whose latencies
// differ several-fold, so the median of the pooled mix falls in a gap
// between inputs and jumps with small shifts in either; each input's
// median does not. The geometric mean lets an input move the figure by
// its share of the traffic, whatever its latency: an arithmetic mean
// would be set by the few slowest inputs, whose medians rest on the
// fewest samples.
func inputMedian(out []outcome, op int) float64 {
	per := map[any][]float64{}
	n := 0
	for _, o := range out {
		if o.req != nil && o.ok && o.req.op == op {
			per[o.req.input()] = append(per[o.req.input()], ms(o.lat))
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, xs := range per {
		t += math.Log(percentile(xs, 0.5)) * float64(len(xs))
	}
	return math.Exp(t / float64(n))
}

// phaseStats summarizes one phase's outcomes.
type phaseStats struct {
	sent, ok, wrong, failed int
	lat                     [numOps][]float64 // ms, answered correctly
	lag                     []float64         // ms
	withinLimit             int
	errs                    []string
}

func summarize(out []outcome, limits map[string]float64) phaseStats {
	var st phaseStats
	for _, o := range out {
		if o.req == nil {
			continue
		}
		st.sent++
		st.lag = append(st.lag, ms(o.lag))
		switch {
		case o.ok:
			st.ok++
			l := ms(o.lat)
			st.lat[o.req.op] = append(st.lat[o.req.op], l)
			if lim, has := limits[opNames[o.req.op]]; !has || l <= lim {
				st.withinLimit++
			}
		default:
			st.failed++
			if o.wrong {
				st.wrong++
			}
			if len(st.errs) < 5 {
				st.errs = append(st.errs, fmt.Sprintf("%s %s: %s", opNames[o.req.op], o.req.class, o.errText))
			}
		}
	}
	return st
}

// runOnce runs one workload and writes its report to w.
func runOnce(ctx context.Context, e *env, name string, traced bool, w io.Writer) (*result, error) {
	pl, err := prepare(e, name)
	if err != nil {
		return nil, err
	}
	tPrep := time.Now()
	if err := parallel(runtime.NumCPU(), pl.jobs); err != nil {
		return nil, err
	}
	pl.build()
	// The generator's heap holds every prepared request; collecting it
	// less often while the daemons run keeps its collector off their
	// CPUs. Preparing collects at the default pace, which keeps the
	// oracle's garbage from growing the heap several-fold.
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	fmt.Fprintf(w, "pdxperf %s: seed %d, %.0fs, nproc %d, GOMAXPROCS %d, %d open-loop and %d closed-loop requests prepared (oracle %.2fs)\n",
		name, e.seed, e.seconds, runtime.NumCPU(), runtime.GOMAXPROCS(0), len(pl.open), len(pl.closed), time.Since(tPrep).Seconds())

	tSetup := time.Now()
	var ds []*daemon
	stopAll := func() {
		for _, d := range ds {
			d.stop()
		}
		ds = nil
	}
	defer stopAll()
	for k := 0; k < setupRepeats || time.Since(tSetup) < setupMinTime; k++ {
		stopAll()
		if ds, err = pl.setup(ctx, k); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", k, err)
		}
	}
	setups := make([]float64, len(pl.setupTimes))
	for k, d := range pl.setupTimes {
		setups[k] = d.Seconds()
	}
	var urls []string
	for _, d := range ds {
		urls = append(urls, d.url)
	}
	workers := runtime.NumCPU()
	snd := newSender(urls, max(1, workers/len(ds)))
	defer snd.close()

	res := &result{correct: true}
	tWarm := time.Now()
	warm, _ := snd.runClosed(ctx, pl.warm, workers)
	// A wrong warm-up answer marks the run incorrect; any other warm-up
	// failure means the daemons never reached their warm state.
	ws := summarize(warm, nil)
	if ws.failed > ws.wrong {
		return nil, fmt.Errorf("warm-up: %d of %d failed: %s", ws.failed, ws.sent, strings.Join(ws.errs, "; "))
	}
	if ws.wrong > 0 {
		res.correct = false
		fmt.Fprintf(w, "  warm-up: %d of %d answers wrong: %s\n", ws.wrong, ws.sent, strings.Join(ws.errs, "; "))
	}
	loads := scrapeAll(ctx, ds)
	fmt.Fprintf(w, "  phases: set-ups %.2fs, warm-up %.2fs (%d requests)\n", tWarm.Sub(tSetup).Seconds(), time.Since(tWarm).Seconds(), len(pl.warm))

	// The open loop. A traced run records client spans for every
	// other request, so the two interleaved halves give the tracing
	// overhead on the same mix.
	var tr *tracer
	if traced {
		tr = newTracer()
		snd.tracer = tr
	}
	openCtx, cancel := context.WithTimeout(ctx, e.openPhase()+2*time.Minute)
	before := scrapeAll(ctx, ds)
	runtime.GC() // start the phase with the generator's heap collected
	openOut := snd.runOpen(openCtx, pl.open, workers)
	cancel()
	for k, o := range openOut {
		// An append the open loop never sent must not hold up the
		// closed loop's reads of its version: they fail instead.
		if r := pl.open[k]; o.req == nil && r.done != nil {
			r.done.open()
		}
	}
	after := scrapeAll(ctx, ds)
	snd.tracer = nil

	var closedOut []outcome
	var rates []float64
	if !traced {
		runtime.GC()
		// The closed list is sized to last about closedPhase; a daemon
		// several times slower than that is cut off, unsent requests
		// are not attempted.
		closedCtx, cancel := context.WithTimeout(ctx, 6*e.closedPhase())
		closedOut, rates = snd.runClosed(closedCtx, pl.closed, workers)
		cancel()
	}
	var rss float64
	for _, d := range ds {
		if !d.alive() {
			return nil, fmt.Errorf("daemon %s exited during the run: %v", d.url, d.err)
		}
		r, err := d.rssPeakMiB()
		if err != nil {
			return nil, err
		}
		rss += r
	}
	stopAll()

	op := summarize(openOut, pl.spec.LimitsMS)
	cl := summarize(closedOut, nil)
	res.attempted = op.sent + cl.sent
	res.failed = op.failed + cl.failed
	res.correct = res.correct && op.wrong == 0 && cl.wrong == 0 && res.attempted > 0
	for _, s := range []phaseStats{op, cl} {
		if len(s.errs) > 0 {
			fmt.Fprintf(w, "  failures: %s\n", strings.Join(s.errs, "; "))
		}
	}

	fmt.Fprintf(w, "  set-up x%d: min %.4f, p25 %.4f, p50 %.4f, p75 %.4f, max %.4f s\n", len(setups),
		percentile(setups, 0), percentile(setups, 0.25), percentile(setups, 0.5), percentile(setups, 0.75), percentile(setups, 1))
	fmt.Fprintf(w, "  open loop: %d sent, %d ok, %d failed, lag p50 %.3f ms p99 %.3f ms\n", op.sent, op.ok, op.failed, percentile(op.lag, 0.5), percentile(op.lag, 0.99))
	fmt.Fprintf(w, "  %-8s %6s %9s %9s %9s %9s %9s\n", "op", "n", "p50 ms", "p90 ms", "p99 ms", "max ms", "limit ms")
	for k := 0; k < numOps; k++ {
		l := op.lat[k]
		fmt.Fprintf(w, "  %-8s %6d %9.3f %9.3f %9.3f %9.3f %9.0f\n", opNames[k], len(l), percentile(l, 0.5), percentile(l, 0.9), percentile(l, 0.99), percentile(l, 1), pl.spec.LimitsMS[opNames[k]])
	}
	if !traced {
		fmt.Fprintf(w, "  closed loop: %d sent, %d ok; req/s per slice: %s\n", cl.sent, cl.ok, fmtList(rates))
	}

	if !traced {
		res.set("setup_s", percentile(setups, 0.5))
		res.set("solve_p50_ms", inputMedian(openOut, opSolve))
		res.set("solve_p99_ms", percentile(op.lat[opSolve], 0.99))
		res.set("certain_p50_ms", inputMedian(openOut, opCertain))
		res.set("certain_p99_ms", percentile(op.lat[opCertain], 0.99))
		res.set("batch_p50_ms", inputMedian(openOut, opBatch))
		res.set("batch_p90_ms", percentile(op.lat[opBatch], 0.9))
		res.set("append_p50_ms", inputMedian(openOut, opAppend))
		res.set("append_p90_ms", percentile(op.lat[opAppend], 0.9))
		res.set("peak_rps", percentile(rates, 0.75))
		res.set("slo_ok_ratio", float64(op.withinLimit)/float64(max(1, op.sent)))
		res.set("rss_peak_mb", rss)
		res.set("failed_ratio", float64(res.failed)/float64(max(1, res.attempted)))
		return res, nil
	}

	// Traced run: /metrics deltas, loadgen counts, and the replay.
	b, a := sumSnaps(before), sumSnaps(after)
	ratio := func(hit, miss string) float64 {
		h, m := delta(b, a, hit), delta(b, a, miss)
		if h+m == 0 {
			return 0
		}
		return h / (h + m)
	}
	res.set("server.shed", delta(b, a, "pdxd_shed_total"))
	res.set("registry.instances", a["pdxd_instances"])
	res.set("chasecache.hit_ratio", ratio("pdxd_chase_cache_hits_total", "pdxd_chase_cache_misses_total"))
	res.set("chasecache.evictions", delta(b, a, "pdxd_chase_cache_evictions_total"))
	res.set("chasecache.entries", a["pdxd_chase_cache_entries"])
	res.set("chasecache.bytes", a["pdxd_chase_cache_bytes"])
	res.set("core.nodes", delta(b, a, "pdxd_solver_nodes_total"))
	res.set("qplan.plan_hit_ratio", ratio("pdxd_plan_cache_hits_total", "pdxd_plan_cache_misses_total"))
	res.set("qplan.fallbacks", delta(b, a, "pdxd_certain_compiled_fallbacks_total"))
	res.set("chasecache.resumes", delta(b, a, "pdxd_chase_cache_resumes_total"))
	res.set("chasecache.fallbacks", delta(b, a, "pdxd_chase_cache_fallbacks_total"))
	res.set("snap.saves", delta(b, a, "pdxd_snapshot_saves_total"))
	l := sumSnaps(loads)
	res.set("snap.loads", l["pdxd_snapshot_loads_total"])
	res.set("snap.load_errors", l["pdxd_snapshot_load_errors_total"])
	res.set("append.entries_scanned_per_req", (b["pdxd_chase_cache_entries"]+a["pdxd_chase_cache_entries"])/2)
	var migrated []float64
	for _, o := range openOut {
		if o.ok && o.req.op == opAppend {
			migrated = append(migrated, float64(o.resp.(client.AppendResponse).Migrated))
		}
	}
	res.set("append.migrated_per_req", mean(migrated))
	res.set("loadgen.lag_p99_ms", percentile(op.lag, 0.99))
	res.set("loadgen.sent", float64(op.sent))
	res.set("loadgen.ok", float64(op.ok))

	// Tracing overhead: traced minus untraced half of the open loop.
	var half [2][]float64
	var hop [2][]float64 // proxied-read: [via non-owner, direct to owner]
	for k, o := range openOut {
		if !o.ok || o.req.op != opSolve {
			continue
		}
		half[k%2] = append(half[k%2], ms(o.lat))
		if o.req.pair != nil && o.req.pair.route != nil {
			d := 0
			if o.req.owner {
				d = 1
			}
			hop[d] = append(hop[d], ms(o.lat))
		}
	}
	res.set("trace.overhead_solve_p50_ms", percentile(half[1], 0.5)-percentile(half[0], 0.5))
	proxied := pl.spec.Shards > 1
	if proxied {
		res.set("cluster.proxied", delta(b, a, "pdxd_cluster_proxied_total"))
		res.set("cluster.hop_p50_ms", orZero(percentile(hop[0], 0.5)-percentile(hop[1], 0.5)))
	}

	rp, err := newReplayer(pl, e.st, name == "cold-inline")
	if err != nil {
		return nil, err
	}
	idx := sample(pl.open, 40, e.seed+1)
	tReplay := time.Now()
	for _, k := range idx {
		if err := rp.replay(k, pl.open[k], proxied); err != nil {
			return nil, fmt.Errorf("replaying request %d (%s %s): %w", k, opNames[pl.open[k].op], pl.open[k].class, err)
		}
	}
	if rp.wrong > 0 {
		res.correct = false
		fmt.Fprintf(w, "  replay: %d of %d replayed answers differ from the oracle\n", rp.wrong, len(idx))
	}
	fmt.Fprintf(w, "  replay: %d requests in %.2f s\n", len(idx), time.Since(tReplay).Seconds())
	layerMetrics(res, rp, openOut, idx, proxied)
	composition(w, name, rp, openOut, idx)
	if err := writeSpans(e, name, tr, rp.tr); err != nil {
		return nil, err
	}
	return res, nil
}

func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for k, x := range xs {
		parts[k] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// scrapeAll scrapes every daemon; a failed scrape yields an empty map.
func scrapeAll(ctx context.Context, ds []*daemon) []metricsSnap {
	var out []metricsSnap
	for _, d := range ds {
		m, err := d.scrape(ctx)
		if err != nil {
			m = metricsSnap{}
		}
		out = append(out, m)
	}
	return out
}

// spanTimes groups span durations (µs) by name.
func spanTimes(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/float64(time.Microsecond))
	}
	return out
}

// layerMetrics sets the replay-derived per-layer metrics.
func layerMetrics(res *result, rp *replayer, openOut []outcome, idx []int, proxied bool) {
	times := spanTimes(rp.tr.spans)
	p50 := func(name string) float64 { return orZero(percentile(times[name], 0.5)) }
	for _, m := range []struct{ metric, span string }{
		{"wire.decode_us", "wire.decode"}, {"wire.encode_us", "wire.encode"},
		{"depparse.instance_us", "depparse.instance"}, {"depparse.query_us", "depparse.query"},
		{"registry.hash_us", "registry.hash"},
		{"chase.tractable_us", "chase.tractable"}, {"chase.generic_us", "chase.generic"},
		{"core.verdict_tractable_us", "core.verdict_tractable"}, {"core.verdict_generic_us", "core.verdict_generic"},
		{"qplan.compile_us", "qplan.compile"}, {"qplan.eval_us", "qplan.eval"},
		{"certain.enum_us", "certain.enum"},
		{"core.resume_tractable_us", "core.resume_tractable"}, {"core.resume_generic_us", "core.resume_generic"},
		{"snap.encode_us", "snap.encode"}, {"snap.decode_us", "snap.decode"},
	} {
		res.set(m.metric, p50(m.span))
	}
	if proxied {
		res.set("cluster.owner_us", p50("cluster.owner"))
	}
	per := func(n int) float64 { return float64(n) / float64(max(1, rp.chases)) }
	res.set("chase.steps", per(rp.steps))
	res.set("chase.merges", per(rp.merges))
	res.set("chase.finds", per(rp.finds))
	res.set("core.blocks", mean(rp.blocks))
	res.set("certain.solutions_examined", mean(rp.examined))
	res.set("depparse.facts_per_req", mean(rp.facts)*float64(len(rp.facts))/float64(max(1, len(idx))))
	res.set("wire.req_kb", mean(rp.reqBytes)/1024)
	res.set("snap.entry_kb", mean(rp.entryBytes)/1024)
	// Front-end time: e2e p50 minus the replayed in-layer p50.
	for _, f := range []struct {
		metric string
		op     int
	}{{"server.front_solve_p50_us", opSolve}, {"server.front_batch_p50_us", opBatch}} {
		var e2e, in []float64
		for _, o := range openOut {
			if o.ok && o.req.op == f.op {
				e2e = append(e2e, ms(o.lat)*1000)
			}
		}
		for _, k := range idx {
			if pl := openOut[k].req; pl != nil && pl.op == f.op {
				in = append(in, float64(rp.tr.spans[rp.roots[k]].dur())/float64(time.Microsecond))
			}
		}
		res.set(f.metric, orZero(percentile(e2e, 0.5)-percentile(in, 0.5)))
	}
}

// composition prints the time-composition stanza: self time per layer
// over the replayed requests, plus the front end (measured latency of
// the same requests minus their replayed time).
func composition(w io.Writer, name string, rp *replayer, openOut []outcome, idx []int) {
	spans := rp.tr.spans
	child := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := map[string]time.Duration{}
	for n, s := range spans {
		// Spans outside requests (prerequisites, warm-start decodes)
		// happen at set-up, not per request.
		if s.Req < 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		self[layer] += s.dur() - child[n]
	}
	var front time.Duration
	for _, k := range idx {
		if o := openOut[k]; o.ok {
			if d := time.Duration(o.lat) - spans[rp.roots[k]].dur(); d > 0 {
				front += d
			}
		}
	}
	self["front (e2e minus replay)"] = front
	type lt struct {
		label string
		t     time.Duration
	}
	var ls []lt
	var total time.Duration
	for l, t := range self {
		ls = append(ls, lt{l, t})
		total += t
	}
	sort.Slice(ls, func(a, b int) bool { return ls[a].t > ls[b].t || ls[a].t == ls[b].t && ls[a].label < ls[b].label })
	fmt.Fprintf(w, "  Time composition (%s, %d replayed requests, self time per layer):\n", name, len(idx))
	fmt.Fprintf(w, "  Time: %.5f ms\n", ms(total))
	for _, l := range ls {
		fmt.Fprintf(w, "    %s : %.5f ms (%.1f%%)\n", l.label, ms(l.t), 100*float64(l.t)/float64(max(1, total)))
	}
}

// writeSpans writes the run's spans once, at the end of a traced run.
func writeSpans(e *env, name string, client, replay *tracer) error {
	dir := filepath.Join(e.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", name, e.seed)))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(map[string][]span{"client": client.spans, "replay": replay.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
