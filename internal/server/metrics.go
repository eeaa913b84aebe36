package server

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chase"
	"repro/internal/qplan"
)

// fallbackLabels are the reason labels of
// pdxd_chase_cache_fallbacks_total, in exposition order. The first
// three mirror the chase.Fallback* constants; everything else
// aggregates under "other".
var fallbackLabels = [...]string{
	chase.FallbackEgd,
	chase.FallbackFailed,
	chase.FallbackOblivious,
	"other",
}

// fallback returns the counter for a chase fallback reason, mapping
// unknown reasons to "other".
func (m *metrics) fallback(reason string) *atomic.Int64 {
	for i, l := range fallbackLabels[:len(fallbackLabels)-1] {
		if reason == l {
			return &m.cacheFallbacks[i]
		}
	}
	return &m.cacheFallbacks[len(fallbackLabels)-1]
}

// compiledFallbackLabels are the reason labels of
// pdxd_certain_compiled_fallbacks_total: the qplan fallback taxonomy
// plus "other" for anything unexpected.
var compiledFallbackLabels = append(append([]string{}, qplan.FallbackReasons...), "other")

// compiledFallback returns the counter for a compiled-path fallback
// reason, mapping unknown reasons to "other".
func (m *metrics) compiledFallback(reason string) *atomic.Int64 {
	for i, l := range compiledFallbackLabels[:len(compiledFallbackLabels)-1] {
		if reason == l {
			return &m.compiledFallbacks[i]
		}
	}
	return &m.compiledFallbacks[len(compiledFallbackLabels)-1]
}

// metrics holds the daemon's counters and gauges, exposed in Prometheus
// text format on /metrics without any external dependency. Gauges that
// move on every request are atomics; the per-route/status counters sit
// behind a mutex-guarded map (two map operations per request, noise
// next to a solve).
type metrics struct {
	inFlight   atomic.Int64 // solves currently executing
	queueDepth atomic.Int64 // solves waiting for an admission slot
	shed       atomic.Int64 // requests rejected by admission control
	nodes      atomic.Int64 // cumulative generic-solver search nodes

	cacheHits      atomic.Int64 // solves served from a cached chased artifact
	cacheMisses    atomic.Int64 // solves that had to chase from scratch
	cacheResumes   atomic.Int64 // append migrations that resumed incrementally
	cacheEvictions atomic.Int64 // cache entries dropped (LRU or explicit)

	// cacheFallbacks counts append migrations that re-chased fully,
	// split by the chase's fallback reason (indexed per fallbackLabels):
	// an egd blocks the incremental path, the previous chase failed, the
	// chase is oblivious, or anything else (no previous result,
	// unsupported dependency kinds).
	cacheFallbacks [len(fallbackLabels)]atomic.Int64

	planHits   atomic.Int64 // certain-answer queries whose shape had a cached template
	planMisses atomic.Int64 // query shapes compiled into templates on demand
	// compiledFallbacks counts certain-answer requests that fell back
	// from the compiled path to solution enumeration, by qplan fallback
	// reason (indexed per compiledFallbackLabels; sized in newMetrics).
	compiledFallbacks []atomic.Int64

	snapshotSaves      atomic.Int64 // snapshots written to the store
	snapshotLoads      atomic.Int64 // snapshots loaded and installed at warm start
	snapshotLoadErrors atomic.Int64 // snapshots rejected at load (corrupt, unregistered, mismatched)
	warmTransfers      atomic.Int64 // snapshots pulled from a peer and installed

	clusterProxied       atomic.Int64 // solves forwarded to (and answered by) the owning shard
	clusterOwnerComputes atomic.Int64 // chases computed here as the ring owner (cache misses while clustered)
	clusterHandoffs      atomic.Int64 // cache entries pushed to their new owner after a ring change
	clusterRingChanges   atomic.Int64 // liveness transitions observed on the ring

	panics atomic.Int64 // handler panics contained as 500s

	mu       sync.Mutex
	requests map[routeStatus]int64
	timings  map[string]routeTiming // by route
}

type routeStatus struct {
	route  string
	status int
}

// routeTiming accumulates handler time at full resolution, so requests
// faster than a millisecond still add up.
type routeTiming struct {
	sum   time.Duration
	count int64
}

func newMetrics() *metrics {
	return &metrics{
		compiledFallbacks: make([]atomic.Int64, len(compiledFallbackLabels)),
		requests:          make(map[routeStatus]int64),
		timings:           make(map[string]routeTiming),
	}
}

// observe records one completed request.
func (m *metrics) observe(route string, status int, d time.Duration) {
	m.mu.Lock()
	m.requests[routeStatus{route, status}]++
	t := m.timings[route]
	t.sum += d
	t.count++
	m.timings[route] = t
	m.mu.Unlock()
}

// render writes the Prometheus text exposition. Families are emitted in
// a fixed order and series in sorted label order, so scrapes are
// deterministic.
func (m *metrics) render(registrySize, instanceCount, cacheEntries int, cacheBytes int64) string {
	var b strings.Builder
	b.WriteString("# HELP pdxd_requests_total Requests served, by route and HTTP status.\n")
	b.WriteString("# TYPE pdxd_requests_total counter\n")
	m.mu.Lock()
	keys := make([]routeStatus, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].route != keys[b].route {
			return keys[a].route < keys[b].route
		}
		return keys[a].status < keys[b].status
	})
	for _, k := range keys {
		fmt.Fprintf(&b, "pdxd_requests_total{route=%q,status=\"%d\"} %d\n", k.route, k.status, m.requests[k])
	}
	b.WriteString("# HELP pdxd_request_duration_milliseconds Cumulative handler time, by route.\n")
	b.WriteString("# TYPE pdxd_request_duration_milliseconds counter\n")
	routes := make([]string, 0, len(m.timings))
	for k := range m.timings {
		routes = append(routes, k)
	}
	sort.Strings(routes)
	for _, r := range routes {
		t := m.timings[r]
		fmt.Fprintf(&b, "pdxd_request_duration_milliseconds_sum{route=%q} %.3f\n", r, float64(t.sum)/float64(time.Millisecond))
		fmt.Fprintf(&b, "pdxd_request_duration_milliseconds_count{route=%q} %d\n", r, t.count)
	}
	m.mu.Unlock()

	fmt.Fprintf(&b, "# HELP pdxd_in_flight_solves Solves currently executing.\n# TYPE pdxd_in_flight_solves gauge\npdxd_in_flight_solves %d\n", m.inFlight.Load())
	fmt.Fprintf(&b, "# HELP pdxd_queue_depth Solves waiting for an admission slot.\n# TYPE pdxd_queue_depth gauge\npdxd_queue_depth %d\n", m.queueDepth.Load())
	fmt.Fprintf(&b, "# HELP pdxd_panics_total Handler panics contained and answered with a 500.\n# TYPE pdxd_panics_total counter\npdxd_panics_total %d\n", m.panics.Load())
	fmt.Fprintf(&b, "# HELP pdxd_shed_total Requests rejected by admission control.\n# TYPE pdxd_shed_total counter\npdxd_shed_total %d\n", m.shed.Load())
	fmt.Fprintf(&b, "# HELP pdxd_solver_nodes_total Cumulative generic-solver search nodes.\n# TYPE pdxd_solver_nodes_total counter\npdxd_solver_nodes_total %d\n", m.nodes.Load())
	fmt.Fprintf(&b, "# HELP pdxd_registry_settings Registered settings.\n# TYPE pdxd_registry_settings gauge\npdxd_registry_settings %d\n", registrySize)
	fmt.Fprintf(&b, "# HELP pdxd_instances Registered instances.\n# TYPE pdxd_instances gauge\npdxd_instances %d\n", instanceCount)
	fmt.Fprintf(&b, "# HELP pdxd_chase_cache_hits_total Solves served from a cached chased artifact.\n# TYPE pdxd_chase_cache_hits_total counter\npdxd_chase_cache_hits_total %d\n", m.cacheHits.Load())
	fmt.Fprintf(&b, "# HELP pdxd_chase_cache_misses_total Solves that chased from scratch.\n# TYPE pdxd_chase_cache_misses_total counter\npdxd_chase_cache_misses_total %d\n", m.cacheMisses.Load())
	fmt.Fprintf(&b, "# HELP pdxd_chase_cache_resumes_total Append migrations that resumed the chase incrementally.\n# TYPE pdxd_chase_cache_resumes_total counter\npdxd_chase_cache_resumes_total %d\n", m.cacheResumes.Load())
	b.WriteString("# HELP pdxd_chase_cache_fallbacks_total Append migrations that re-chased fully, by fallback reason.\n# TYPE pdxd_chase_cache_fallbacks_total counter\n")
	for i, l := range fallbackLabels {
		fmt.Fprintf(&b, "pdxd_chase_cache_fallbacks_total{reason=%q} %d\n", l, m.cacheFallbacks[i].Load())
	}
	fmt.Fprintf(&b, "# HELP pdxd_chase_cache_evictions_total Cache entries dropped by LRU bounds or explicit eviction.\n# TYPE pdxd_chase_cache_evictions_total counter\npdxd_chase_cache_evictions_total %d\n", m.cacheEvictions.Load())
	fmt.Fprintf(&b, "# HELP pdxd_chase_cache_entries Cached chased artifacts.\n# TYPE pdxd_chase_cache_entries gauge\npdxd_chase_cache_entries %d\n", cacheEntries)
	fmt.Fprintf(&b, "# HELP pdxd_chase_cache_bytes Approximate bytes held by the chase cache.\n# TYPE pdxd_chase_cache_bytes gauge\npdxd_chase_cache_bytes %d\n", cacheBytes)
	fmt.Fprintf(&b, "# HELP pdxd_plan_cache_hits_total Compiled certain-answer queries whose query shape (constants outside the setting lifted) had a cached plan template.\n# TYPE pdxd_plan_cache_hits_total counter\npdxd_plan_cache_hits_total %d\n", m.planHits.Load())
	fmt.Fprintf(&b, "# HELP pdxd_plan_cache_misses_total Query shapes compiled into a plan template on demand.\n# TYPE pdxd_plan_cache_misses_total counter\npdxd_plan_cache_misses_total %d\n", m.planMisses.Load())
	b.WriteString("# HELP pdxd_certain_compiled_fallbacks_total Certain-answer requests that fell back to solution enumeration, by reason.\n# TYPE pdxd_certain_compiled_fallbacks_total counter\n")
	for i, l := range compiledFallbackLabels {
		fmt.Fprintf(&b, "pdxd_certain_compiled_fallbacks_total{reason=%q} %d\n", l, m.compiledFallbacks[i].Load())
	}
	fmt.Fprintf(&b, "# HELP pdxd_snapshot_saves_total Snapshots written to the snapshot store.\n# TYPE pdxd_snapshot_saves_total counter\npdxd_snapshot_saves_total %d\n", m.snapshotSaves.Load())
	fmt.Fprintf(&b, "# HELP pdxd_snapshot_loads_total Snapshots loaded and installed at warm start.\n# TYPE pdxd_snapshot_loads_total counter\npdxd_snapshot_loads_total %d\n", m.snapshotLoads.Load())
	fmt.Fprintf(&b, "# HELP pdxd_snapshot_load_errors_total Snapshots rejected at load time.\n# TYPE pdxd_snapshot_load_errors_total counter\npdxd_snapshot_load_errors_total %d\n", m.snapshotLoadErrors.Load())
	fmt.Fprintf(&b, "# HELP pdxd_snapshot_warm_transfers_total Snapshots pulled from a peer and installed.\n# TYPE pdxd_snapshot_warm_transfers_total counter\npdxd_snapshot_warm_transfers_total %d\n", m.warmTransfers.Load())
	fmt.Fprintf(&b, "# HELP pdxd_cluster_proxied_total Solves forwarded to the owning shard.\n# TYPE pdxd_cluster_proxied_total counter\npdxd_cluster_proxied_total %d\n", m.clusterProxied.Load())
	fmt.Fprintf(&b, "# HELP pdxd_cluster_owner_computes_total Chases computed on this shard as the ring owner.\n# TYPE pdxd_cluster_owner_computes_total counter\npdxd_cluster_owner_computes_total %d\n", m.clusterOwnerComputes.Load())
	fmt.Fprintf(&b, "# HELP pdxd_cluster_handoffs_total Cache entries pushed to their new owner after a ring change.\n# TYPE pdxd_cluster_handoffs_total counter\npdxd_cluster_handoffs_total %d\n", m.clusterHandoffs.Load())
	fmt.Fprintf(&b, "# HELP pdxd_cluster_ring_changes_total Liveness transitions observed on the ring.\n# TYPE pdxd_cluster_ring_changes_total counter\npdxd_cluster_ring_changes_total %d\n", m.clusterRingChanges.Load())
	return b.String()
}
