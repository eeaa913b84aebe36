package main

// The load generator: a single process driving the daemons over
// pde/client with one worker per connection. The open loop sends each
// request at its scheduled time regardless of earlier replies and
// times it from that schedule, so a stall shows up in the latency of
// every request it delays; the closed loop sends the next request as
// soon as a worker is free and measures the completion rate.

import (
	"context"
	"errors"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/pde/client"
)

// gate orders dependent requests: an append's child instance must exist
// before a read or a later append names it.
type gate struct {
	once sync.Once
	ch   chan struct{}
}

func newGate() *gate { return &gate{ch: make(chan struct{})} }

func (g *gate) open() { g.once.Do(func() { close(g.ch) }) }

// request is one pre-built request with its expected answer.
type request struct {
	op    int
	class string        // input family and size, for reports
	pair  *pair         // by-ID reads: the pair read
	shape *pair         // inline reads: the pair the request renames
	owner bool          // proxied-read: sent straight to the owning shard
	due   time.Duration // open loop: send time from the phase start

	solve    *client.SolveRequest
	certain  *client.CertainRequest
	batch    *client.CertainBatchRequest
	app      *client.AppendRequest
	appendTo string // append: base instance ID
	retire   string // append: a superseded version to evict once it succeeds

	after *gate // must be open before sending
	done  *gate // opened when this request completes
	want  expectation
}

// input identifies what a request reads for per-input latency
// medians: its pair, the pair an inline request renames, or else its
// class (a lineage or the side instance).
func (r *request) input() any {
	switch {
	case r.pair != nil:
		return r.pair
	case r.shape != nil:
		return r.shape
	}
	return r.class
}

// target is the daemon a request goes to: the first one, or on a ring
// the pair's owner or the other shard.
func (r *request) target() int {
	if r.pair == nil || r.pair.route == nil {
		return 0
	}
	if r.owner {
		return r.pair.route.owner
	}
	return 1 - r.pair.route.owner
}

// outcome is the measured result of one sent request.
type outcome struct {
	req     *request
	lat     time.Duration // completion minus due (open) or send (closed)
	lag     time.Duration // send minus due (open loop)
	end     time.Time     // reply received, before the answer is checked
	ok      bool          // 2xx with the expected answer
	wrong   bool          // 2xx with a wrong answer
	errText string
	resp    any
}

// sender issues requests over one shared transport with at most
// perHost connections to each daemon.
type sender struct {
	clients []*client.Client // one per shard
	tr      *http.Transport
	// tracer, when set, records client spans of the odd-numbered
	// open-loop requests.
	tracer *tracer
}

func newSender(urls []string, perHost int) *sender {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
		MaxConnsPerHost:     perHost,
		MaxIdleConnsPerHost: perHost,
		IdleConnTimeout:     time.Minute,
	}
	hc := &http.Client{Transport: tr, Timeout: 120 * time.Second}
	s := &sender{tr: tr}
	for _, u := range urls {
		s.clients = append(s.clients, client.New(u, hc))
	}
	return s
}

func (s *sender) close() { s.tr.CloseIdleConnections() }

// send issues one request and returns the decoded response.
func (s *sender) send(ctx context.Context, r *request) (any, error) {
	cl := s.clients[r.target()]
	switch r.op {
	case opSolve:
		return cl.ExistsSolution(ctx, *r.solve)
	case opCertain:
		return cl.CertainAnswers(ctx, *r.certain)
	case opBatch:
		return cl.CertainBatch(ctx, *r.batch)
	default:
		return cl.AppendInstance(ctx, r.appendTo, *r.app)
	}
}

// do waits for the request's dependency, sends it and checks the reply.
// The reply's arrival time is taken before the check, so checking is
// never part of a measured latency.
func (s *sender) do(ctx context.Context, r *request, o *outcome) {
	if r.after != nil {
		select {
		case <-r.after.ch:
		case <-ctx.Done():
			o.end, o.errText = time.Now(), ctx.Err().Error()
			return
		}
	}
	resp, err := s.send(ctx, r)
	o.end = time.Now()
	if r.done != nil {
		r.done.open()
	}
	o.resp = resp
	if err != nil {
		o.errText = err.Error()
		var api *client.APIError
		if !errors.As(err, &api) && ctx.Err() != nil {
			o.errText = "canceled at phase end"
		}
		return
	}
	if err := r.check(resp); err != nil {
		o.wrong, o.errText = true, err.Error()
		return
	}
	o.ok = true
}

// retire evicts the superseded version an append names, once the
// append's outcome and times are recorded, so the eviction is never
// part of a measured latency. A failed eviction fails the append.
func (s *sender) retire(ctx context.Context, o *outcome) {
	if !o.ok || o.req.retire == "" {
		return
	}
	if err := s.clients[o.req.target()].EvictInstance(ctx, o.req.retire); err != nil {
		o.ok, o.errText = false, "retiring "+o.req.retire+": "+err.Error()
	}
}

// runOpen sends reqs at their due times from workers goroutines and
// returns one outcome per request, in schedule order. Requests still
// unsent when ctx ends are not attempted and come back with a nil req.
func (s *sender) runOpen(ctx context.Context, reqs []*request, workers int) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(reqs) || ctx.Err() != nil {
					return
				}
				r := reqs[k]
				if wait := r.due - time.Since(start); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
						return
					}
				}
				o := &out[k]
				o.req = r
				sent := time.Now()
				o.lag = sent.Sub(start) - r.due
				s.do(ctx, r, o)
				end := o.end
				o.lat = end.Sub(start) - r.due
				if s.tracer != nil && k%2 == 1 {
					due := start.Add(r.due)
					root := s.tracer.add("loadgen.request", due, end, -1, k)
					s.tracer.add("loadgen.wait", due, sent, root, k)
					s.tracer.add("client.call", sent, end, root, k)
				}
				s.retire(ctx, o)
			}
		}()
	}
	wg.Wait()
	return out
}

// runClosed sends every request of reqs in order, each as soon as a
// worker is free, in numSlices slices of equal request counts. The list
// is a fixed amount of work, so a run's figure does not depend on how
// far a faster or slower run got through it. Between slices the workers
// stop and the retirements of the slice just ended are sent, off the
// clock, so the completion rate counts only the mix while the daemon's
// registry stays bounded. It returns one outcome per request (nil req:
// not attempted before ctx ended) and each slice's correct completions
// per second.
func (s *sender) runClosed(ctx context.Context, reqs []*request, workers int) ([]outcome, []float64) {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var rates []float64
	for slice := 0; slice < numSlices && ctx.Err() == nil; slice++ {
		first, last := slice*len(reqs)/numSlices, (slice+1)*len(reqs)/numSlices
		if first == last {
			continue
		}
		next.Store(int64(first))
		start := time.Now()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					k := int(next.Add(1) - 1)
					if k >= last {
						return
					}
					r := reqs[k]
					o := &out[k]
					o.req = r
					t := time.Now()
					s.do(ctx, r, o)
					o.lat = o.end.Sub(t)
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		ok := 0
		for k := first; k < last; k++ {
			if out[k].ok {
				ok++
			}
			s.retire(ctx, &out[k])
		}
		rates = append(rates, float64(ok)/elapsed.Seconds())
	}
	return out, rates
}
