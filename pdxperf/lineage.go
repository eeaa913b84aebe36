package main

// append-stream: two instances grow by appends while reads hit their
// newest step. Every step's instance, ID and expected answers are
// known before the run; a read waits for the append that created the
// step it names, as a client would that learned the ID from the reply.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/workload"
	"repro/pde"
	"repro/pde/client"
)

// lineage is one growing instance.
type lineage struct {
	name      string
	st        *setting
	j         *pde.Instance
	tgtText   string
	tgtID     string
	steps     []*pde.Instance // steps[0] is the base
	ids       []string
	gates     []*gate // gates[s] opens once step s exists on the daemon
	deltas    []*pde.Instance
	appended  []time.Duration // open loop: due time of the append making step s
	queries   []string
	batchPool []string
	groups    int
	tag       string

	// Oracle needs and answers per step.
	needExists map[int]bool
	needQuery  map[[2]int]bool
	needBatch  map[[2]int]bool
	exists     map[int]bool
	wants      map[[2]int]certainWant
	batchWants map[[2]int][]certainWant
	install    func() // moves the oracle jobs' results into the maps
}

func newLineage(name string, st *setting, i, j *pde.Instance) *lineage {
	l := &lineage{name: name, st: st, j: j, tgtText: pde.FormatInstance(j), tgtID: instanceID(j),
		steps: []*pde.Instance{i}, ids: []string{instanceID(i)}, gates: []*gate{newGate()}, deltas: []*pde.Instance{nil},
		appended:   []time.Duration{-1},
		needExists: map[int]bool{}, needQuery: map[[2]int]bool{}, needBatch: map[[2]int]bool{},
		exists: map[int]bool{}, wants: map[[2]int]certainWant{}, batchWants: map[[2]int][]certainWant{}}
	l.gates[0].open()
	return l
}

// grow draws the next step's delta and returns the step index.
func (l *lineage) grow(due time.Duration) int {
	s := len(l.steps)
	var delta *pde.Instance
	if l.st.generic {
		delta = keyedAppend(s*appendFacts, l.tag)
	} else {
		delta = lavAppend(l.groups, s*appendFacts)
	}
	child := union(l.steps[s-1], delta)
	l.steps = append(l.steps, child)
	l.ids = append(l.ids, instanceID(child))
	l.gates = append(l.gates, newGate())
	l.deltas = append(l.deltas, delta)
	l.appended = append(l.appended, due)
	return s
}

// newestBefore returns the latest step whose append was due at least
// gap before due (open loop).
func (l *lineage) newestBefore(due, gap time.Duration) int {
	s := len(l.steps) - 1
	for s > 0 && l.appended[s] > due-gap {
		s--
	}
	return s
}

// targetByID is the target side of a by-ID read.
func (l *lineage) targetByID() string {
	if l.tgtText == "" {
		return ""
	}
	return l.tgtID
}

// jobs returns the oracle jobs for every step a read needs.
func (l *lineage) jobs() []func() error {
	steps := map[int]bool{}
	for s := range l.needExists {
		steps[s] = true
	}
	for k := range l.needQuery {
		steps[k[0]] = true
	}
	for k := range l.needBatch {
		steps[k[0]] = true
	}
	results := make(chan func(), len(steps))
	var out []func() error
	for s := range steps {
		out = append(out, func() error {
			o := newPairOracle(l.st, l.steps[s], l.j)
			var ex bool
			var err error
			if l.needExists[s] {
				if ex, err = o.verdict(); err != nil {
					return fmt.Errorf("oracle %s step %d: %w", l.name, s, err)
				}
			}
			var qs []string
			var qk []int
			for k := range l.queries {
				if l.needQuery[[2]int{s, k}] {
					qs, qk = append(qs, l.queries[k]), append(qk, k)
				}
			}
			ws, err := o.certain(qs)
			if err != nil {
				return err
			}
			bw := map[int][]certainWant{}
			for off := 0; off+batchSize <= len(l.batchPool); off += 16 {
				if l.needBatch[[2]int{s, off}] {
					if bw[off], err = o.certain(l.batchPool[off : off+batchSize]); err != nil {
						return err
					}
				}
			}
			results <- func() {
				if l.needExists[s] {
					l.exists[s] = ex
				}
				for n, k := range qk {
					l.wants[[2]int{s, k}] = ws[n]
				}
				for off, w := range bw {
					l.batchWants[[2]int{s, off}] = w
				}
			}
			return nil
		})
	}
	// The jobs hand their results over a channel; install moves them
	// into the maps on the preparing goroutine once every job is done.
	l.install = func() {
		close(results)
		for f := range results {
			f()
		}
	}
	return out
}

// read builds a read of step s. The request waits for the step's gate.
func (l *lineage) solveReq(s int) *request {
	return &request{op: opSolve, class: l.name, after: l.gates[s], want: expectation{exists: l.exists[s]},
		solve: &client.SolveRequest{SettingID: l.st.id, SourceID: l.ids[s], TargetID: l.targetByID()}}
}

func (l *lineage) certainReq(s, k int) *request {
	return &request{op: opCertain, class: l.name, after: l.gates[s], want: expectation{certain: l.wants[[2]int{s, k}]},
		certain: &client.CertainRequest{SettingID: l.st.id, SourceID: l.ids[s], TargetID: l.targetByID(), Query: l.queries[k]}}
}

func (l *lineage) batchReq(s, off int) *request {
	return &request{op: opBatch, class: l.name, after: l.gates[s], want: expectation{batch: l.batchWants[[2]int{s, off}]},
		batch: &client.CertainBatchRequest{SettingID: l.st.id, SourceID: l.ids[s], TargetID: l.targetByID(), Queries: l.batchPool[off : off+batchSize]}}
}

// retireLag is how many versions back an append retires: once step s
// exists, the client evicts step s-retireLag, which no read still
// names, so the daemon holds a bounded number of versions.
const retireLag = 8

// appendReq builds the append creating step s.
func (l *lineage) appendReq(s int) *request {
	want, _ := appendWant(l.steps[s-1], l.deltas[s])
	r := &request{op: opAppend, class: l.name, appendTo: l.ids[s-1], after: l.gates[s-1], done: l.gates[s],
		want: expectation{app: want}, app: &client.AppendRequest{Facts: pde.FormatInstance(l.deltas[s])}}
	if s-retireLag >= 1 {
		r.retire = l.ids[s-retireLag]
	}
	return r
}

// readDesc is a drawn read, built into a request after the oracle.
type readDesc struct {
	op, step, arg int
	lin           *lineage
	due           time.Duration
	open          bool
}

// prepareAppend builds append-stream.
func prepareAppend(e *env, w workloadSpec, rng, srng *rand.Rand) (*plan, error) {
	st := e.st
	pl := &plan{spec: w, insts: map[string]*pde.Instance{}}
	li, lj := workload.LAVInstance(e.size(400), true, rng)
	lav := newLineage("lav-400", st.lav, li, lj)
	lav.groups = max(1, e.size(400)/10)
	lav.queries = lavQueries(e.size(400), 8, "", rng)
	lav.batchPool = lavQueries(e.size(400), batchSize+64, "", rng)
	ki, kj := keyedShape(e.size(100), false)
	keyed := newLineage("keyed-100", st.keyed, retag(ki, "k"), retag(kj, "k"))
	keyed.tag = "k"
	keyed.queries = keyedQueries(e.size(100), 4, "k", rng)
	pl.lins = []*lineage{lav, keyed}

	// The cache population every append's migration scans.
	var pop []*pair
	for k := 0; k < 12; k++ {
		i, j := workload.LAVInstance(e.size(200), rng.Intn(2) == 0, rng)
		tag := fmt.Sprintf("pop%d", k)
		pop = append(pop, newPair("lav-200", st.lav, retag(i, tag), retag(j, tag)))
	}
	for k := 0; k < 2; k++ {
		i, j := keyedShape(e.size(50), false)
		tag := fmt.Sprintf("kpop%d", k)
		pop = append(pop, newPair("keyed-50", st.keyed, retag(i, tag), retag(j, tag)))
	}
	pl.pairs = pop

	// Half the appends, three of four solves and four of five certain
	// reads go to the lav lineage. The read shares keep each p50 inside
	// the lav plateau, clear of the slower keyed.pde reads.
	twoDeck, fourDeck, fiveDeck := newDeck(srng, 2), newDeck(srng, 4), newDeck(srng, 5)
	queryDeck, windowDeck := newDeck(srng, 8), newDeck(srng, windows)
	pickLin := func(d *deck) *lineage {
		if d.next() == 0 {
			return keyed
		}
		return lav
	}
	// Draw the stream: appends grow the lineages as they are drawn;
	// reads name the newest step an earlier append made.
	var descs []readDesc
	draw := func(op int, due time.Duration, open bool, pos int, closedAppends map[*lineage][]int) {
		switch op {
		case opAppend:
			l := pickLin(twoDeck)
			s := l.grow(due)
			descs = append(descs, readDesc{op: op, step: s, lin: l, due: due, open: open})
			if !open {
				closedAppends[l] = append(closedAppends[l], pos)
			}
			return
		case opBatch:
			d := readDesc{op: op, lin: lav, due: due, open: open, arg: windowDeck.next() * 16}
			descs = append(descs, d)
		case opCertain:
			l := pickLin(fiveDeck)
			descs = append(descs, readDesc{op: op, lin: l, due: due, open: open, arg: queryDeck.next() % len(l.queries)})
		default:
			descs = append(descs, readDesc{op: op, lin: pickLin(fourDeck), due: due, open: open})
		}
		d := &descs[len(descs)-1]
		if open {
			d.step = d.lin.newestBefore(due, 250*time.Millisecond)
		} else {
			// Closed loop: the newest step appended at least 4 requests
			// earlier, or the open loop's last step.
			d.step = len(d.lin.steps) - 1
			ps := closedAppends[d.lin]
			for k := len(ps) - 1; k >= 0 && ps[k] > pos-4; k-- {
				d.step--
			}
		}
	}
	for _, a := range paced(srng, w.Rates, e.openPhase()) {
		draw(a.op, a.due, true, 0, nil)
	}
	closedAppends := map[*lineage][]int{}
	for pos, op := range mixOps(srng, w.Rates, closedLen(e, 150)) {
		draw(op, 0, false, pos, closedAppends)
	}
	// Warm-up reads of every base query and batch window.
	var warm []readDesc
	for _, l := range pl.lins {
		warm = append(warm, readDesc{op: opSolve, lin: l})
		for k := range l.queries {
			warm = append(warm, readDesc{op: opCertain, lin: l, arg: k})
		}
		for off := 0; off+batchSize <= len(l.batchPool); off += 16 {
			warm = append(warm, readDesc{op: opBatch, lin: l, arg: off})
		}
	}
	for _, d := range append(warm, descs...) {
		switch d.op {
		case opSolve:
			d.lin.needExists[d.step] = true
		case opCertain:
			d.lin.needQuery[[2]int{d.step, d.arg}] = true
		case opBatch:
			d.lin.needBatch[[2]int{d.step, d.arg}] = true
		}
	}
	for _, l := range pl.lins {
		pl.jobs = append(pl.jobs, l.jobs()...)
		for s := range l.steps {
			pl.insts[l.ids[s]] = l.steps[s]
		}
		pl.insts[l.tgtID] = l.j
	}
	build := func(d readDesc) *request {
		switch d.op {
		case opSolve:
			return d.lin.solveReq(d.step)
		case opCertain:
			return d.lin.certainReq(d.step, d.arg)
		case opBatch:
			return d.lin.batchReq(d.step, d.arg)
		default:
			return d.lin.appendReq(d.step)
		}
	}
	pl.build = func() {
		for _, l := range pl.lins {
			l.install()
		}
		for _, d := range warm {
			pl.warm = append(pl.warm, build(d))
		}
		for _, d := range descs {
			r := build(d)
			if d.open {
				r.due = d.due
				pl.open = append(pl.open, r)
			} else {
				pl.closed = append(pl.closed, r)
			}
		}
	}
	pl.setup = func(ctx context.Context, k int) ([]*daemon, error) {
		start := time.Now()
		d, err := startDaemon(e.bin, "127.0.0.1:0", []string{"-snapshot-dir", filepath.Join(e.work, fmt.Sprintf("snap-%d", k)), "-cache-max-entries", "16"}, e.files)
		if err != nil {
			return nil, err
		}
		bases := []*pair{}
		for _, l := range pl.lins {
			b := newPair(l.name, l.st, l.steps[0], l.j)
			bases = append(bases, b)
		}
		if err := chaseAll(ctx, d.ctl, append(bases, pop...)); err != nil {
			d.stop()
			return nil, err
		}
		pl.setupTimes = append(pl.setupTimes, time.Since(start))
		return []*daemon{d}, nil
	}
	return pl, nil
}
