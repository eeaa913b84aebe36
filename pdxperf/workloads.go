package main

// The four workloads: their inputs, oracle jobs, request streams and
// daemon set-ups. A workload is prepared once per run (inputs and
// expected answers, untimed), then set up setupRepeats times on fresh
// daemons (timed), warmed (untimed), and driven.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/workload"
	"repro/pde"
	"repro/pde/client"
)

// env is one run's fixed context.
type env struct {
	root    string // checkout root
	bin     string // pdx binary
	work    string // per-run scratch directory
	seed    int64
	seconds float64
	scale   float64 // input size factor: 1 for the benchmark, small in tests
	st      *settings
	files   []string // setting files preloaded into every daemon
}

// size scales an instance size, keeping at least 8 elements.
func (e *env) size(n int) int { return max(8, int(math.Round(float64(n)*e.scale))) }

// openPhase and closedPhase are the lengths of a run's measured
// phases: three quarters and a quarter of --seconds.
func (e *env) openPhase() time.Duration {
	return time.Duration(e.seconds * 0.75 * float64(time.Second))
}
func (e *env) closedPhase() time.Duration {
	return time.Duration(e.seconds * 0.25 * float64(time.Second))
}

// pair is one (setting, I, J) input with its wire IDs, its query
// pools and their expected answers.
type pair struct {
	class            string
	st               *setting
	i, j             *pde.Instance
	srcText, tgtText string
	srcID, tgtID     string
	exists           bool
	queries          []string // single certain-answers pool
	wants            []certainWant
	batchPool        []string // batch query pool (empty: no batches)
	batchWants       []certainWant
	route            *route // proxied-read: owning shard, set at set-up
}

// route is a pair's placement on the ring, known once the shards run.
type route struct{ owner int }

func newPair(class string, st *setting, i, j *pde.Instance) *pair {
	p := &pair{class: class, st: st, i: i, j: j}
	p.srcText, p.tgtText = pde.FormatInstance(i), pde.FormatInstance(j)
	p.srcID, p.tgtID = instanceID(i), instanceID(j)
	return p
}

// oracleJob returns the job computing the pair's expected answers.
// The query lists are taken when the job is made.
func (p *pair) oracleJob() func() error {
	queries, batchPool := p.queries, p.batchPool
	return func() error {
		o := newPairOracle(p.st, p.i, p.j)
		var err error
		if p.exists, err = o.verdict(); err != nil {
			return fmt.Errorf("oracle %s: %w", p.class, err)
		}
		if p.wants, err = o.certain(queries); err != nil {
			return err
		}
		p.batchWants, err = o.certain(batchPool)
		return err
	}
}

// register registers the pair's non-empty instances with a daemon.
func (p *pair) register(ctx context.Context, cl *client.Client) error {
	for _, t := range []struct{ text, id string }{{p.srcText, p.srcID}, {p.tgtText, p.tgtID}} {
		if t.text == "" {
			continue
		}
		resp, err := cl.RegisterInstance(ctx, t.text)
		if err != nil {
			return fmt.Errorf("registering %s: %w", p.class, err)
		}
		if resp.ID != t.id {
			return fmt.Errorf("registering %s: daemon ID %s, expected %s", p.class, resp.ID, t.id)
		}
	}
	return nil
}

// targetByID sets the target side of a by-ID request: the registered
// ID, or inline ∅ when J is empty (empty instances are not registered).
func (p *pair) targetByID() string {
	if p.tgtText == "" {
		return ""
	}
	return p.tgtID
}

func (p *pair) solveReq() *request {
	return &request{op: opSolve, class: p.class, pair: p, want: expectation{exists: p.exists},
		solve: &client.SolveRequest{SettingID: p.st.id, SourceID: p.srcID, TargetID: p.targetByID()}}
}

func (p *pair) certainReq(k int) *request {
	return &request{op: opCertain, class: p.class, pair: p, want: expectation{certain: p.wants[k]},
		certain: &client.CertainRequest{SettingID: p.st.id, SourceID: p.srcID, TargetID: p.targetByID(), Query: p.queries[k]}}
}

func (p *pair) batchReq(off int) *request {
	return &request{op: opBatch, class: p.class, pair: p, want: expectation{batch: p.batchWants[off : off+batchSize]},
		batch: &client.CertainBatchRequest{SettingID: p.st.id, SourceID: p.srcID, TargetID: p.targetByID(), Queries: p.batchPool[off : off+batchSize]}}
}

// sideLineage is a small lav instance that takes appends of fresh
// facts, each onto the same base, and that no read touches: the write
// trickle of the read workloads. Appending to a fixed base and retiring
// each child keeps every append the same size.
type sideLineage struct {
	base   *pde.Instance
	text   string
	id     string
	groups int
	next   int
}

func newSideLineage(rng *rand.Rand) *sideLineage {
	const n = 40
	base, _ := workload.LAVInstance(n, true, rng)
	return &sideLineage{base: base, text: pde.FormatInstance(base), id: instanceID(base), groups: n / 10}
}

// appendReq builds the next append. The client retires the child once
// it exists, so the daemon's registry stays the same size all run.
func (s *sideLineage) appendReq() *request {
	delta := lavAppend(s.groups, s.next*appendFacts)
	s.next++
	want, _ := appendWant(s.base, delta)
	return &request{op: opAppend, class: "lav-side", appendTo: s.id, retire: want.ID, want: expectation{app: want},
		app: &client.AppendRequest{Facts: pde.FormatInstance(delta)}}
}

func (s *sideLineage) register(ctx context.Context, cl *client.Client) error {
	resp, err := cl.RegisterInstance(ctx, s.text)
	if err == nil && resp.ID != s.id {
		err = fmt.Errorf("daemon ID %s, expected %s", resp.ID, s.id)
	}
	if err != nil {
		return fmt.Errorf("registering side lineage: %w", err)
	}
	return nil
}

// plan is a prepared workload.
type plan struct {
	spec   workloadSpec
	open   []*request // in due order
	closed []*request
	warm   []*request // untimed warm-up, sent after set-up
	jobs   []func() error
	// setup starts fresh daemons and brings them to the workload's warm
	// state; the returned daemons serve the measured phases.
	setup func(ctx context.Context, k int) ([]*daemon, error)
	// build fills open, closed and warm once the oracle jobs are done.
	build      func()
	setupTimes []time.Duration
	// pairs, lineages and insts feed the replay: every registered
	// instance by ID.
	pairs []*pair
	lins  []*lineage
	insts map[string]*pde.Instance
}

// arrival is one scheduled open-loop request slot.
type arrival struct {
	op  int
	due time.Duration
}

// paced schedules the open loop: requests at a fixed total rate (the
// sum of the per-operation rates), evenly spaced over d, with the
// operations in mixOps order.
func paced(rng *rand.Rand, rates map[string]float64, d time.Duration) []arrival {
	total := 0.0
	for _, r := range rates {
		total += r
	}
	ops := mixOps(rng, rates, int(total*d.Seconds()))
	out := make([]arrival, len(ops))
	for k, op := range ops {
		out[k] = arrival{op: op, due: time.Duration(float64(k) / total * float64(time.Second))}
	}
	return out
}

// mixOps returns n operations in the rates' exact proportions: each
// round deals, in shuffled order, rate-many of every operation.
func mixOps(rng *rand.Rand, rates map[string]float64, n int) []int {
	var round []int
	for op := 0; op < numOps; op++ {
		for k := 0; k < int(rates[opNames[op]]); k++ {
			round = append(round, op)
		}
	}
	d := newDeck(rng, len(round))
	out := make([]int, n)
	for k := range out {
		out[k] = round[d.next()]
	}
	return out
}

// closedLen sizes a closed-loop list to last about closedPhase at
// rate, the mix's completion rate on the host the benchmark was built
// on. The list is then a fixed amount of work: every run sends all of
// it, however fast the daemon.
func closedLen(e *env, rate float64) int {
	return max(4*numSlices, int(rate*e.closedPhase().Seconds()))
}

// deck deals 0..n-1 in shuffled rounds, so every index comes up
// equally often over a run.
type deck struct {
	rng   *rand.Rand
	n     int
	order []int
}

func newDeck(rng *rand.Rand, n int) *deck { return &deck{rng: rng, n: n} }

func (d *deck) next() int {
	if len(d.order) == 0 {
		d.order = d.rng.Perm(d.n)
	}
	k := d.order[0]
	d.order = d.order[1:]
	return k
}

// scheduleSeed fixes a workload's structure: arrival times, operation
// order and which pair, query or batch window each request uses. The
// --seed argument fixes the contents: the instances and the constants
// in queries. Runs with different seeds thus send the same traffic
// shape over different data, and their spread measures the system,
// not the luck of the draw.
const scheduleSeed = 20051

// prepare builds the named workload's plan.
func prepare(e *env, name string) (*plan, error) {
	w, ok := findWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	rng := rand.New(rand.NewSource(e.seed))
	srng := rand.New(rand.NewSource(scheduleSeed))
	switch name {
	case "warm-read":
		return prepareWarm(e, w, rng, srng, false)
	case "proxied-read":
		return prepareWarm(e, w, rng, srng, true)
	case "cold-inline":
		return prepareCold(e, w, rng, srng)
	default:
		return prepareAppend(e, w, rng, srng)
	}
}

// warmPairs builds the registered pairs of the warm workloads.
func warmPairs(e *env, rng *rand.Rand, proxied bool) []*pair {
	st := e.st
	lav := func(n int, solvable bool) *pair {
		i, j := workload.LAVInstance(e.size(n), solvable, rng)
		p := newPair(fmt.Sprintf("lav-%d", n), st.lav, i, j)
		p.queries = lavQueries(e.size(n), 8, "", rng)
		return p
	}
	keyed := func(n int, drafts bool) *pair {
		i, j := keyedShape(e.size(n), drafts)
		class, tag := fmt.Sprintf("keyed-%d", n), fmt.Sprintf("k%d", n)
		if drafts {
			class += "-drafts"
		}
		p := newPair(class, st.keyed, retag(i, tag), retag(j, tag))
		p.queries = keyedQueries(e.size(n), 4, tag, rng)
		return p
	}
	var ps []*pair
	if proxied {
		ps = []*pair{lav(400, true), lav(400, true), lav(400, false), lav(1600, true), keyed(100, false)}
	} else {
		ps = []*pair{lav(400, true), lav(400, true), lav(400, false), lav(1600, true), lav(1600, false),
			keyed(100, false), keyed(100, true), keyed(200, false)}
	}
	// Batches run over the first lav pair of each size.
	ps[0].batchPool = lavQueries(e.size(400), batchSize+64, "", rng)
	if !proxied {
		ps[3].batchPool = lavQueries(e.size(1600), batchSize+64, "", rng)
	}
	return ps
}

// prepareWarm builds warm-read, or proxied-read when proxied is set.
func prepareWarm(e *env, w workloadSpec, rng, srng *rand.Rand, proxied bool) (*plan, error) {
	ps := warmPairs(e, rng, proxied)
	side := newSideLineage(rng)
	pl := &plan{spec: w, pairs: ps, insts: map[string]*pde.Instance{side.id: side.base}}
	for _, p := range ps {
		pl.insts[p.srcID], pl.insts[p.tgtID] = p.i, p.j
		pl.jobs = append(pl.jobs, p.oracleJob())
	}
	var batchers []*pair
	for _, p := range ps {
		if len(p.batchPool) > 0 {
			batchers = append(batchers, p)
		}
	}
	solveDeck, certainDeck, batchDeck := newDeck(srng, len(ps)), newDeck(srng, len(ps)), newDeck(srng, len(batchers))
	queryDeck := newDeck(srng, 8)
	windowDeck := newDeck(srng, windows)
	ownerDeck := newDeck(srng, 5)
	make1 := func(op int) *request {
		var r *request
		switch op {
		case opSolve:
			r = ps[solveDeck.next()].solveReq()
		case opCertain:
			p := ps[certainDeck.next()]
			r = p.certainReq(queryDeck.next() % len(p.queries))
		case opBatch:
			r = batchers[batchDeck.next()].batchReq(windowDeck.next() * 16)
		default:
			return side.appendReq()
		}
		// One in five proxied-read reads goes straight to the owner.
		r.owner = proxied && ownerDeck.next() == 0
		return r
	}
	// The stream is drawn here; the requests are built once the oracle
	// has filled in the answers they carry.
	open := paced(srng, w.Rates, e.openPhase())
	closedRate := 800.0
	if proxied {
		closedRate = 400
	}
	closedOps := mixOps(srng, w.Rates, closedLen(e, closedRate))
	pl.build = func() {
		for _, a := range open {
			r := make1(a.op)
			r.due = a.due
			pl.open = append(pl.open, r)
		}
		for _, op := range closedOps {
			pl.closed = append(pl.closed, make1(op))
		}
		for _, p := range ps {
			pl.warm = append(pl.warm, p.solveReq())
			for k := range p.queries {
				pl.warm = append(pl.warm, p.certainReq(k))
			}
			for off := 0; off+batchSize <= len(p.batchPool); off += 16 {
				pl.warm = append(pl.warm, p.batchReq(off))
			}
		}
		// Proxied warm-up chases on the owner and fills the owner's plan
		// cache through the non-owner.
		for _, r := range pl.warm {
			r.owner = proxied && r.op == opSolve
		}
	}
	if proxied {
		pl.setup = func(ctx context.Context, k int) ([]*daemon, error) { return setupCluster(ctx, e, pl, side, k) }
	} else {
		pl.setup = func(ctx context.Context, k int) ([]*daemon, error) { return setupWarm(ctx, e, pl, side, k) }
	}
	return pl, nil
}

// setupWarm brings up warm-read: an untimed first life chases every
// pair and drains to the snapshot directory; each timed set-up
// restarts over that directory until the first solve is a cache hit.
func setupWarm(ctx context.Context, e *env, pl *plan, side *sideLineage, k int) ([]*daemon, error) {
	dir := filepath.Join(e.work, "snap")
	if k == 0 {
		d, err := startDaemon(e.bin, "127.0.0.1:0", []string{"-snapshot-dir", dir}, e.files)
		if err != nil {
			return nil, err
		}
		err = chaseAll(ctx, d.ctl, pl.pairs)
		d.stop()
		if err != nil {
			return nil, err
		}
	}
	start := time.Now()
	d, err := startDaemon(e.bin, "127.0.0.1:0", []string{"-snapshot-dir", dir}, e.files)
	if err != nil {
		return nil, err
	}
	if err := side.register(ctx, d.ctl); err != nil {
		d.stop()
		return nil, err
	}
	p := pl.pairs[0]
	resp, err := d.ctl.ExistsSolution(ctx, *p.solveReq().solve)
	if err == nil && !resp.CacheHit {
		err = fmt.Errorf("first solve after restart was not a cache hit")
	}
	if err != nil {
		d.stop()
		return nil, fmt.Errorf("warm restart: %w", err)
	}
	pl.setupTimes = append(pl.setupTimes, time.Since(start))
	return []*daemon{d}, nil
}

// chaseAll registers every pair and solves it once, so the daemon
// holds each pair's chased artifact.
func chaseAll(ctx context.Context, cl *client.Client, ps []*pair) error {
	for _, p := range ps {
		if err := p.register(ctx, cl); err != nil {
			return err
		}
		if _, err := cl.ExistsSolution(ctx, *p.solveReq().solve); err != nil {
			return fmt.Errorf("chasing %s: %w", p.class, err)
		}
	}
	return nil
}

// freePorts reserves n loopback ports by binding and releasing them.
func freePorts(n int) ([]int, error) {
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var ports []int
	for k := 0; k < n; k++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		ls = append(ls, l)
		ports = append(ports, l.Addr().(*net.TCPAddr).Port)
	}
	return ports, nil
}

// setupCluster brings up proxied-read's two-shard ring, registers the
// pairs on both shards and chases each pair on its owner.
func setupCluster(ctx context.Context, e *env, pl *plan, side *sideLineage, k int) ([]*daemon, error) {
	ports, err := freePorts(2)
	if err != nil {
		return nil, err
	}
	urls := []string{fmt.Sprintf("http://127.0.0.1:%d", ports[0]), fmt.Sprintf("http://127.0.0.1:%d", ports[1])}
	start := time.Now()
	var ds []*daemon
	stopAll := func() {
		for _, d := range ds {
			d.stop()
		}
	}
	for _, u := range urls {
		d, err := startDaemon(e.bin, strings.TrimPrefix(u, "http://"),
			[]string{"-cluster-self", u, "-cluster-peers", strings.Join(urls, ","), "-cluster-probe", "100ms"}, e.files)
		if err != nil {
			stopAll()
			return nil, err
		}
		ds = append(ds, d)
	}
	// Peers start dead and join on their first successful probe.
	for _, d := range ds {
		for {
			st, err := d.ctl.ClusterStatus(ctx, "", "", "")
			if err != nil {
				stopAll()
				return nil, err
			}
			alive := 0
			for _, m := range st.Members {
				if m.Alive {
					alive++
				}
			}
			if alive == len(urls) {
				break
			}
			if time.Since(start) > 30*time.Second {
				stopAll()
				return nil, fmt.Errorf("cluster did not form within 30s")
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	for _, d := range ds {
		for _, p := range pl.pairs {
			if err := p.register(ctx, d.ctl); err != nil {
				stopAll()
				return nil, err
			}
		}
	}
	if err := side.register(ctx, ds[0].ctl); err != nil {
		stopAll()
		return nil, err
	}
	for _, p := range pl.pairs {
		st, err := ds[0].ctl.ClusterStatus(ctx, p.st.id, p.srcID, p.tgtID)
		if err != nil {
			stopAll()
			return nil, err
		}
		owner := -1
		for s, u := range urls {
			if st.Owner == u {
				owner = s
			}
		}
		if owner < 0 {
			stopAll()
			return nil, fmt.Errorf("ring names unknown owner %q", st.Owner)
		}
		p.route = &route{owner: owner}
		if _, err := ds[owner].ctl.ExistsSolution(ctx, *p.solveReq().solve); err != nil {
			stopAll()
			return nil, fmt.Errorf("chasing %s on its owner: %w", p.class, err)
		}
	}
	pl.setupTimes = append(pl.setupTimes, time.Since(start))
	return ds, nil
}

// prepareCold builds cold-inline.
func prepareCold(e *env, w workloadSpec, rng, srng *rand.Rand) (*plan, error) {
	st := e.st
	pl := &plan{spec: w, insts: map[string]*pde.Instance{}}
	shape := func(class string, s *setting, i, j *pde.Instance) *pair {
		p := newPair(class, s, i, j)
		pl.pairs = append(pl.pairs, p)
		return p
	}
	var solves, certains, batches []*pair
	for _, n := range []int{100, 400, 1600} {
		for _, ok := range []bool{true, false} {
			i, j := workload.LAVInstance(e.size(n), ok, rng)
			solves = append(solves, shape(fmt.Sprintf("lav-%d", n), st.lav, i, j))
		}
	}
	for _, n := range []int{100, 400} {
		for _, ok := range []bool{true, false} {
			i, j := workload.FullSTInstance(e.size(n), ok, rng)
			solves = append(solves, shape(fmt.Sprintf("full-st-%d", n), st.full, i, j))
		}
	}
	for _, k := range []struct {
		n      int
		drafts bool
	}{{50, false}, {100, true}, {200, false}} {
		i, j := keyedShape(e.size(k.n), k.drafts)
		class := fmt.Sprintf("keyed-%d", k.n)
		if k.drafts {
			class += "-drafts"
		}
		solves = append(solves, shape(class, st.keyed, i, j))
	}
	for _, ok := range []bool{true, false} {
		i, j := workload.LAVInstance(e.size(400), ok, rng)
		p := shape("lav-400", st.lav, i, j)
		p.queries = lavQueries(e.size(400), 8, tagMark, rng)
		certains = append(certains, p)
	}
	{
		i, j := keyedShape(e.size(100), false)
		p := shape("keyed-100", st.keyed, i, j)
		p.queries = keyedQueries(e.size(100), 8, tagMark, rng)
		certains = append(certains, p)
	}
	for _, ok := range []bool{true, false} {
		i, j := workload.LAVInstance(e.size(100), ok, rng)
		p := shape("lav-100", st.lav, i, j)
		p.batchPool = lavQueries(e.size(100), batchSize+64, tagMark, rng)
		batches = append(batches, p)
	}
	// Solves and certain reads deal lav n=400 three and two times as
	// often as each other shape. Without the weight the p50 falls on
	// the step between the cheap shapes (n=100, keyed n=50) and the
	// expensive ones (n=1600, full-st n=400, keyed n>=100), where it
	// jumps between them from run to run; with it the p50 sits inside
	// the lav n=400 plateau.
	lav400s := solves[2:4]
	solves = append(append(solves, lav400s...), lav400s...)
	certains = append(certains, certains[:2]...)
	for _, p := range pl.pairs {
		// The oracle runs on the untagged shape and queries.
		q, b := p.queries, p.batchPool
		p.queries, p.batchPool = untag(q), untag(b)
		pl.jobs = append(pl.jobs, p.oracleJob())
		p.queries, p.batchPool = q, b
	}
	side := newSideLineage(rng)
	pl.insts[side.id] = side.base
	seq := 0
	inline := func(p *pair, tag string) (string, string) {
		return pde.FormatInstance(retag(p.i, tag)), pde.FormatInstance(retag(p.j, tag))
	}
	solveDeck, certainDeck, batchDeck := newDeck(srng, len(solves)), newDeck(srng, len(certains)), newDeck(srng, len(batches))
	queryDeck, windowDeck := newDeck(srng, 8), newDeck(srng, windows)
	make1 := func(op int) *request {
		seq++
		tag := fmt.Sprintf("r%d", seq)
		switch op {
		case opSolve:
			p := solves[solveDeck.next()]
			src, tgt := inline(p, tag)
			return &request{op: op, class: p.class, shape: p, want: expectation{exists: p.exists},
				solve: &client.SolveRequest{SettingID: p.st.id, Source: src, Target: tgt}}
		case opCertain:
			p := certains[certainDeck.next()]
			k := queryDeck.next() % len(p.queries)
			src, tgt := inline(p, tag)
			return &request{op: op, class: p.class, shape: p, want: expectation{certain: p.wants[k].tagged(tag)},
				certain: &client.CertainRequest{SettingID: p.st.id, Source: src, Target: tgt, Query: withTag(p.queries[k], tag)}}
		case opBatch:
			p := batches[batchDeck.next()]
			off := windowDeck.next() * 16
			qs := make([]string, batchSize)
			ws := make([]certainWant, batchSize)
			for k := range qs {
				qs[k] = withTag(p.batchPool[off+k], tag)
				ws[k] = p.batchWants[off+k].tagged(tag)
			}
			src, tgt := inline(p, tag)
			return &request{op: op, class: p.class, shape: p, want: expectation{batch: ws},
				batch: &client.CertainBatchRequest{SettingID: p.st.id, Source: src, Target: tgt, Queries: qs}}
		default:
			return side.appendReq()
		}
	}
	open := paced(srng, w.Rates, e.openPhase())
	closedOps := mixOps(srng, w.Rates, closedLen(e, 190))
	pl.build = func() {
		for _, a := range open {
			r := make1(a.op)
			r.due = a.due
			pl.open = append(pl.open, r)
		}
		for _, op := range closedOps {
			pl.closed = append(pl.closed, make1(op))
		}
	}
	pl.setup = func(ctx context.Context, k int) ([]*daemon, error) {
		start := time.Now()
		d, err := startDaemon(e.bin, "127.0.0.1:0", []string{"-cache-max-entries", "8"}, e.files)
		if err != nil {
			return nil, err
		}
		if err := side.register(ctx, d.ctl); err != nil {
			d.stop()
			return nil, err
		}
		if _, err := d.ctl.Health(ctx); err != nil {
			d.stop()
			return nil, err
		}
		pl.setupTimes = append(pl.setupTimes, time.Since(start))
		return []*daemon{d}, nil
	}
	return pl, nil
}

// windows is the number of batch windows in a pool: batches take 256
// consecutive queries starting at a multiple of 16.
const windows = (64 / 16) + 1

// tagMark stands for a request's tag inside cold-inline query
// templates.
const tagMark = "{T}"

func withTag(q, tag string) string { return strings.ReplaceAll(q, tagMark, tag) }

func untag(qs []string) []string {
	out := make([]string, len(qs))
	for k, q := range qs {
		out[k] = withTag(q, "")
	}
	return out
}

// writeSettingFiles writes the settings as .pde files for preloading.
func writeSettingFiles(e *env) error {
	for _, st := range e.st.all {
		f := filepath.Join(e.work, st.name+".pde")
		if err := os.WriteFile(f, []byte(st.text), 0o644); err != nil {
			return err
		}
		e.files = append(e.files, f)
	}
	return nil
}
