package main

// The benchmark's fixed parameters: the four traffic mixes, their
// open-loop rates, input sizes and per-operation latency limits, and
// the metric tables. SPEC.json is this file rendered by -describe; a
// test keeps the two in step.

import "time"

// Operation kinds, in report order.
const (
	opSolve = iota
	opCertain
	opBatch
	opAppend
	numOps
)

var opNames = [numOps]string{"solve", "certain", "batch", "append"}

// batchSize is the number of queries in one batch request.
const batchSize = 256

// appendFacts is the number of fresh facts in one append request.
const appendFacts = 16

// A run brings its daemons up at least setupRepeats times, and again
// until the set-ups have taken setupMinTime, so a workload whose
// daemons come up in milliseconds takes enough of them for a steady
// median; setup_s reports the median.
const (
	setupRepeats = 9
	setupMinTime = 1500 * time.Millisecond
)

// workloadSpec describes one traffic mix.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Loop states the arrival process of each phase.
	Loop string `json:"loop"`
	// Rates are the open-loop arrival rates per operation, in req/s.
	Rates map[string]float64 `json:"rates_per_s"`
	// LimitsMS are the per-operation latency limits behind slo_ok_ratio.
	LimitsMS map[string]float64 `json:"latency_limits_ms"`
	// Sizes lists the instance families and sizes each operation uses.
	Sizes map[string][]string `json:"sizes"`
	// Daemon lists the pdx serve flags the workload deploys with.
	Daemon []string `json:"daemon_flags"`
	// Shards is the number of daemons.
	Shards int `json:"shards"`
	// Listed marks the workloads BENCHMARK.json names; the others run
	// only when asked for by name.
	Listed bool `json:"in_benchmark_json"`
}

// metricSpec describes one reported metric.
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	Bound  any    `json:"bound,omitempty"`
	What   string `json:"what"`
}

// workloads is the benchmark's workload table.
var workloads = []workloadSpec{
	{
		Name: "warm-read",
		Why:  "the steady state of a served setting: cache hits, verdicts, compiled plans and snapshot decode at restart do the work, the chase almost none",
		Loop: "open loop at the fixed rates below, evenly spaced, then a closed loop over the same mix; one connection per CPU",
		Rates: map[string]float64{
			"solve": 80, "certain": 40, "batch": 8, "append": 20,
		},
		LimitsMS: map[string]float64{
			"solve": 40, "certain": 50, "batch": 80, "append": 50,
		},
		Sizes: map[string][]string{
			"solve":   {"lav n=400 x3 (one unsolvable)", "lav n=1600 x2 (one unsolvable)", "keyed.pde n=100 clean", "keyed.pde n=100 key-violating drafts", "keyed.pde n=200 clean"},
			"certain": {"same pairs, 8 queries per lav pair and 4 per keyed.pde pair, repeating"},
			"batch":   {"256 queries over lav n=400 and n=1600, drawn from a pool of 320 per pair"},
			"append":  {"16 fresh facts onto a lav n=40 side instance no read touches; the client evicts each child (untimed)"},
		},
		Daemon: []string{"-snapshot-dir"},
		Shards: 1,
		Listed: true,
	},
	{
		Name: "cold-inline",
		Why:  "new data arriving: every request inlines a fresh pair, so JSON decode, parsing, hashing, the chase and LRU eviction do the work and the cache never hits",
		Loop: "open loop at the fixed rates below, evenly spaced, then a closed loop over fresh requests of the same mix; one connection per CPU",
		Rates: map[string]float64{
			"solve": 12, "certain": 5, "batch": 3, "append": 6,
		},
		LimitsMS: map[string]float64{
			"solve": 400, "certain": 400, "batch": 400, "append": 60,
		},
		Sizes: map[string][]string{
			"solve":   {"lav n=100,400,1600 (n=400 dealt 3x as often)", "full-st n=100,400", "keyed.pde n=50 and n=200 clean, n=100 key-violating drafts"},
			"certain": {"lav n=400 (compiled, 4 of 5)", "keyed.pde n=100 clean (enumeration, 1 of 5)"},
			"batch":   {"lav n=100 with 256 fresh queries"},
			"append":  {"16 fresh facts onto a lav n=40 side instance no read touches; the client evicts each child (untimed)"},
		},
		Daemon: []string{"-cache-max-entries=8"},
		Shards: 1,
		Listed: true,
	},
	{
		Name: "append-stream",
		Why:  "writes beside reads: appends resume cached chases, scan the cache and queue snapshot writes while reads hit the newest instance",
		Loop: "open loop at the fixed rates below, evenly spaced, then a closed loop over the same mix; one connection per CPU; a read waits for the append that made its instance",
		Rates: map[string]float64{
			"solve": 24, "certain": 12, "batch": 4, "append": 4,
		},
		LimitsMS: map[string]float64{
			"solve": 50, "certain": 60, "batch": 80, "append": 150,
		},
		Sizes: map[string][]string{
			"solve":   {"newest lav n=400 lineage step (3 of 4)", "newest keyed.pde n=100 clean lineage step (1 of 4)"},
			"certain": {"same lineages, 4 of 5 on lav (8 queries), 1 of 5 on keyed.pde (4 queries)"},
			"batch":   {"256 queries over the newest lav lineage step"},
			"append":  {"16 fresh facts, alternately onto the lav and the keyed.pde lineage; after each append the client evicts the version 8 appends older (untimed); 12 lav n=200 and 2 keyed.pde n=50 pairs fill the cache at set-up"},
		},
		Daemon: []string{"-snapshot-dir", "-cache-max-entries=16"},
		Shards: 1,
		Listed: true,
	},
	{
		Name: "proxied-read",
		Why:  "the cluster layer and the proxy hop: warm reads sent mostly to the shard that does not own the key, with a control share sent to the owner",
		Loop: "open loop at the fixed rates below, evenly spaced, then a closed loop over the same mix; one connection per shard",
		Rates: map[string]float64{
			"solve": 30, "certain": 15, "batch": 4, "append": 6,
		},
		LimitsMS: map[string]float64{
			"solve": 80, "certain": 80, "batch": 120, "append": 60,
		},
		Sizes: map[string][]string{
			"solve":   {"lav n=400 x3 (one unsolvable)", "lav n=1600", "keyed.pde n=100 clean; 80% via the non-owner shard"},
			"certain": {"same pairs, repeating pool; 80% via the non-owner shard"},
			"batch":   {"256 queries over lav n=400; 80% via the non-owner shard"},
			"append":  {"16 fresh facts onto a lav n=40 side instance on shard 0; the client evicts each child (untimed)"},
		},
		Daemon: []string{"-cluster-self", "-cluster-peers", "-cluster-probe=100ms"},
		Shards: 2,
	},
}

// endToEnd are the metrics of an untraced run, in report order.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, What: "daemon launch until the workload's warm state is ready; median of at least 9 set-ups, repeated for at least 1.5 s"},
	{Name: "solve_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, What: "POST /v1/exists-solution latency from the scheduled send time; geometric mean of each input's median (an input is a pair or a growing lineage), weighted by the input's share of the requests"},
	{Name: "certain_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, What: "POST /v1/certain-answers latency from the scheduled send time; share-weighted geometric mean of the per-input medians"},
	{Name: "batch_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, What: "POST /v1/certain-answers/batch latency (256 queries) from the scheduled send time; share-weighted geometric mean of the per-input medians"},
	{Name: "append_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, What: "POST /v1/instances/{id}/append latency including cache migration, from the scheduled send time; share-weighted geometric mean of the per-input medians"},
	{Name: "slo_ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.05, What: "share of open-loop requests answered correctly within their operation's latency limit"},
	{Name: "rss_peak_mb", Unit: "MiB", Better: "lower", Bound: 0.2, What: "daemon VmHWM at the end of the run, summed over shards"},
}

// reportOnly are end-to-end metrics printed in the report but kept out
// of BENCHMARK.json, so no bound gates them. The tails do not repeat:
// on a 2-vCPU VM losing a quarter of its CPU time to steal, ten runs of
// one commit spread their p99 and p90 by 40-60% of the median (see
// BASELINE.json), wider than any bound BENCHMARK.json may set, while
// the medians stay within 10%. failed_ratio is 0 on a healthy run.
var reportOnly = []metricSpec{
	{Name: "peak_rps", Unit: "req/s", Better: "higher", What: "correct completions per second in the closed-loop phase; upper quartile over its 10 slices"},
	{Name: "solve_p99_ms", Unit: "ms", Better: "lower", What: "POST /v1/exists-solution latency, 99th percentile over the whole open loop"},
	{Name: "certain_p99_ms", Unit: "ms", Better: "lower", What: "POST /v1/certain-answers latency, 99th percentile over the whole open loop"},
	{Name: "batch_p90_ms", Unit: "ms", Better: "lower", What: "POST /v1/certain-answers/batch latency, 90th percentile over the whole open loop"},
	{Name: "append_p90_ms", Unit: "ms", Better: "lower", What: "POST /v1/instances/{id}/append latency, 90th percentile over the whole open loop"},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower", What: "share of attempted requests with a transport error, a 4xx/5xx or a wrong answer (also the result's failed/attempted)"},
}

// perLayer are the metrics of a traced run. Times come from the
// in-process replay of a seeded sample of the run's requests; counts
// and gauges from /metrics deltas over the measured phases.
var perLayer = []metricSpec{
	{Name: "server.front_solve_p50_us", Unit: "us", Better: "lower", What: "solve e2e p50 minus the replayed in-layer p50: net/http, routing, admission, metrics, logging, client"},
	{Name: "server.front_batch_p50_us", Unit: "us", Better: "lower", What: "batch e2e p50 minus the replayed in-layer p50"},
	{Name: "server.shed", Unit: "count", Better: "lower", What: "pdxd_shed_total delta"},
	{Name: "wire.decode_us", Unit: "us", Better: "lower", What: "encoding/json decode of a request DTO, p50"},
	{Name: "wire.encode_us", Unit: "us", Better: "lower", What: "encoding/json encode of a response DTO, p50"},
	{Name: "wire.req_kb", Unit: "KiB", Better: "lower", What: "mean request body size"},
	{Name: "depparse.instance_us", Unit: "us", Better: "lower", What: "pde.ParseInstance per parsed instance, p50"},
	{Name: "depparse.query_us", Unit: "us", Better: "lower", What: "pde.ParseQueries per request, p50"},
	{Name: "depparse.facts_per_req", Unit: "count", Better: "lower", What: "facts parsed per request, mean"},
	{Name: "registry.hash_us", Unit: "us", Better: "lower", What: "pde.FormatInstance plus sha256 per hashed instance, p50"},
	{Name: "registry.instances", Unit: "count", Better: "lower", What: "pdxd_instances at the end"},
	{Name: "chasecache.hit_ratio", Unit: "ratio", Better: "higher", What: "pdxd_chase_cache hits / (hits + misses) delta"},
	{Name: "chasecache.evictions", Unit: "count", Better: "lower", What: "pdxd_chase_cache_evictions_total delta"},
	{Name: "chasecache.entries", Unit: "count", Better: "lower", What: "pdxd_chase_cache_entries at the end"},
	{Name: "chasecache.bytes", Unit: "bytes", Better: "lower", What: "pdxd_chase_cache_bytes at the end"},
	{Name: "chase.tractable_us", Unit: "us", Better: "lower", What: "core.ChaseCanonicalTractable per chase, p50"},
	{Name: "chase.generic_us", Unit: "us", Better: "lower", What: "core.ChaseCanonicalTarget per chase, p50"},
	{Name: "chase.steps", Unit: "count", Better: "lower", What: "chase steps per replayed chase, mean"},
	{Name: "chase.merges", Unit: "count", Better: "lower", What: "egd merges per replayed chase, mean"},
	{Name: "chase.finds", Unit: "count", Better: "lower", What: "union-find finds per replayed chase, mean"},
	{Name: "core.verdict_tractable_us", Unit: "us", Better: "lower", What: "core.ExistsSolutionTractableFrom, p50"},
	{Name: "core.verdict_generic_us", Unit: "us", Better: "lower", What: "core.ExistsSolutionGenericFrom, p50"},
	{Name: "core.blocks", Unit: "count", Better: "lower", What: "blocks per replayed tractable trace, mean"},
	{Name: "core.nodes", Unit: "count", Better: "lower", What: "pdxd_solver_nodes_total delta"},
	{Name: "qplan.compile_us", Unit: "us", Better: "lower", What: "pde.CompileCertain per compiled query, p50"},
	{Name: "qplan.eval_us", Unit: "us", Better: "lower", What: "Plan.Eval / EvalGiven per query, p50"},
	{Name: "qplan.plan_hit_ratio", Unit: "ratio", Better: "higher", What: "pdxd_plan_cache hits / (hits + misses) delta"},
	{Name: "qplan.fallbacks", Unit: "count", Better: "lower", What: "pdxd_certain_compiled_fallbacks_total delta"},
	{Name: "certain.enum_us", Unit: "us", Better: "lower", What: "certain.Boolean / certain.Answers from a cached canonical target, p50"},
	{Name: "certain.solutions_examined", Unit: "count", Better: "lower", What: "image solutions enumerated per enumeration, mean"},
	{Name: "core.resume_tractable_us", Unit: "us", Better: "lower", What: "core.ResumeCanonicalTractable per migrated entry, p50"},
	{Name: "core.resume_generic_us", Unit: "us", Better: "lower", What: "core.ResumeCanonicalTarget per migrated entry, p50"},
	{Name: "chasecache.resumes", Unit: "count", Better: "higher", What: "pdxd_chase_cache_resumes_total delta"},
	{Name: "chasecache.fallbacks", Unit: "count", Better: "lower", What: "pdxd_chase_cache_fallbacks_total delta"},
	{Name: "append.migrated_per_req", Unit: "count", Better: "lower", What: "cache entries migrated per append response, mean"},
	{Name: "append.entries_scanned_per_req", Unit: "count", Better: "lower", What: "cache entries an append's migration scans (pdxd_chase_cache_entries), mean over scrapes"},
	{Name: "snap.encode_us", Unit: "us", Better: "lower", What: "snap.Encode per artifact, p50"},
	{Name: "snap.entry_kb", Unit: "KiB", Better: "lower", What: "encoded snapshot entry size, mean"},
	{Name: "snap.saves", Unit: "count", Better: "lower", What: "pdxd_snapshot_saves_total delta"},
	{Name: "snap.decode_us", Unit: "us", Better: "lower", What: "snap.Decode per artifact, p50"},
	{Name: "snap.loads", Unit: "count", Better: "higher", What: "pdxd_snapshot_loads_total at the last start"},
	{Name: "snap.load_errors", Unit: "count", Better: "lower", What: "pdxd_snapshot_load_errors_total at the last start"},
	{Name: "loadgen.lag_p99_ms", Unit: "ms", Better: "lower", What: "how late the generator sent, 99th percentile"},
	{Name: "loadgen.sent", Unit: "count", Better: "higher", What: "requests sent in the measured phases"},
	{Name: "loadgen.ok", Unit: "count", Better: "higher", What: "requests answered correctly in the measured phases"},
	{Name: "trace.overhead_solve_p50_ms", Unit: "ms", Better: "lower", What: "traced minus untraced solve p50 within the traced run"},
}

// clusterLayer are the per-layer metrics of the proxy hop. Only a ring
// moves them, so a traced run reports them on proxied-read alone and
// BENCHMARK.json, which does not list proxied-read, leaves them out.
var clusterLayer = []metricSpec{
	{Name: "cluster.owner_us", Unit: "us", Better: "lower", What: "cluster.Ring.Owner per lookup on the 2-member ring, p50"},
	{Name: "cluster.proxied", Unit: "count", Better: "lower", What: "pdxd_cluster_proxied_total delta, summed over shards"},
	{Name: "cluster.hop_p50_ms", Unit: "ms", Better: "lower", What: "non-owner minus direct-to-owner solve p50"},
}

// layerTable returns the per-layer metrics a traced run of w reports.
func (w workloadSpec) layerTable() []metricSpec {
	if w.Shards > 1 {
		return append(append([]metricSpec{}, perLayer...), clusterLayer...)
	}
	return perLayer
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
