package main

// The answer oracle: expected verdicts, certain answers, batch results
// and appended-instance IDs, computed with the pde library in the
// benchmark process before any daemon starts. Each compilable (lav,
// full-st) answer comes from an algorithm other than the one the
// daemon serves it with: verdicts from the compiled solution probe
// (the daemon decides SOL(P) with the Figure 3 algorithm), certain
// answers by naive evaluation over the data-exchange universal
// solution (the daemon evaluates compiled plans over the source).
// Generic (keyed.pde) answers come from the library's chase-backed
// entry points on a from-scratch instance: the daemon's own algorithm,
// run without its caches.

import (
	"fmt"
	"reflect"
	"strings"
	"sync"

	"repro/internal/hom"
	"repro/pde"
	"repro/pde/client"
)

// certainWant is the expected wire form of one certain-answers result.
type certainWant struct {
	name      string
	solExists bool
	certain   bool
	answers   [][]string
}

// expectation is the expected answer of one request.
type expectation struct {
	exists  bool
	certain certainWant
	batch   []certainWant
	app     client.AppendResponse
}

// parseQuery parses one query text into its UCQ.
func parseQuery(text string) (pde.UCQ, error) {
	qs, err := pde.ParseQueries(text)
	if err != nil {
		return nil, err
	}
	if len(qs) != 1 {
		return nil, fmt.Errorf("query %q: want one query, got %d", text, len(qs))
	}
	return qs[0], nil
}

// pairOracle computes the expected answers over one (i, j). It
// computes the verdict and, for compilable settings, the universal
// solution once, however many queries it answers.
type pairOracle struct {
	st      *setting
	i, j    *pde.Instance
	decided bool
	exists  bool
	univ    *pde.Instance // compilable settings with a solution
}

func newPairOracle(st *setting, i, j *pde.Instance) *pairOracle {
	return &pairOracle{st: st, i: i, j: j}
}

// verdict returns the SOL(P) verdict for (i, j).
func (o *pairOracle) verdict() (bool, error) {
	if o.decided {
		return o.exists, nil
	}
	var err error
	if o.st.plan != nil {
		o.exists, err = o.st.plan.SolutionExists(o.i, o.j, pde.CompiledEvalOptions{Parallelism: 1})
		if err == nil && o.exists {
			o.univ, err = universal(o.st, o.i, o.j)
		}
	} else {
		var res pde.Result
		res, err = pde.ExistsSolution(o.st.s, o.i, o.j, pde.Options{Parallelism: 1})
		o.exists = res.Exists
	}
	o.decided = err == nil
	return o.exists, err
}

// certain computes the certain answers of each query over (i, j).
func (o *pairOracle) certain(queries []string) ([]certainWant, error) {
	out := make([]certainWant, len(queries))
	for k, text := range queries {
		q, err := parseQuery(text)
		if err != nil {
			return nil, err
		}
		var res pde.CertainResult
		switch {
		case o.st.plan != nil:
			var exists bool
			if exists, err = o.verdict(); err == nil {
				res = naiveCertain(q, exists, o.univ)
			}
		case q[0].IsBoolean():
			res, err = pde.CertainBool(o.st.s, o.i, o.j, q, pde.Options{Parallelism: 1})
		default:
			res, err = pde.CertainAnswers(o.st.s, o.i, o.j, q, pde.Options{Parallelism: 1})
		}
		if err != nil {
			return nil, fmt.Errorf("oracle %s: %w", text, err)
		}
		w := certainWant{name: q[0].Name, solExists: res.SolutionExists, certain: res.Certain}
		for _, t := range res.Answers {
			row := make([]string, len(t))
			for c, v := range t {
				row[c] = v.String()
			}
			w.answers = append(w.answers, row)
		}
		out[k] = w
	}
	return out, nil
}

// universal returns the canonical universal solution of the setting's
// data-exchange fragment (Σts dropped) over (i, j).
func universal(st *setting, i, j *pde.Instance) (*pde.Instance, error) {
	de := *st.s
	de.TS = nil
	sol, ok, err := pde.UniversalSolution(&de, i, j, pde.Options{Parallelism: 1})
	if err == nil && !ok {
		err = fmt.Errorf("oracle: the data-exchange chase of a solvable %s pair failed", st.name)
	}
	return sol, err
}

// naiveCertain returns the certain answers of q over a compilable
// setting: its null-free answers on the universal solution univ of the
// data-exchange fragment. Compilable settings have no target
// constraints and are ts-inert, so when a solution exists the chase of
// Σst alone is one, and every solution holds a homomorphic image of
// it; its null-free answers are then exactly the certain ones. With no
// solution, every Boolean query is vacuously certain and the daemon
// lists no answers for open ones.
func naiveCertain(q pde.UCQ, exists bool, univ *pde.Instance) pde.CertainResult {
	boolean := q[0].IsBoolean()
	if !exists {
		return pde.CertainResult{Certain: boolean}
	}
	var ground []pde.Tuple
	for _, t := range q.Eval(univ, hom.Options{}) {
		if !hasNull(t) {
			ground = append(ground, t)
		}
	}
	if boolean {
		return pde.CertainResult{SolutionExists: true, Certain: len(ground) > 0}
	}
	return pde.CertainResult{SolutionExists: true, Answers: ground}
}

func hasNull(t pde.Tuple) bool {
	for _, v := range t {
		if v.IsNull() {
			return true
		}
	}
	return false
}

// tagged maps an expected result over an untagged shape to the same
// result over the shape renamed by tag.
func (w certainWant) tagged(tag string) certainWant {
	if tag == "" || len(w.answers) == 0 {
		return w
	}
	out := w
	out.answers = make([][]string, len(w.answers))
	for k, row := range w.answers {
		r := make([]string, len(row))
		for c, v := range row {
			r[c] = tag + v
		}
		out.answers[k] = r
	}
	return out
}

// appendWant is the expected response of appending delta to base.
func appendWant(base, delta *pde.Instance) (client.AppendResponse, *pde.Instance) {
	child := union(base, delta)
	return client.AppendResponse{
		ID:     instanceID(child),
		Parent: instanceID(base),
		Added:  child.NumFacts() - base.NumFacts(),
		Facts:  child.NumFacts(),
	}, child
}

// parallel runs the jobs on n goroutines and returns the first error.
func parallel(n int, jobs []func() error) error {
	var (
		mu    sync.Mutex
		first error
		next  int
		wg    sync.WaitGroup
	)
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(jobs) || first != nil {
					mu.Unlock()
					return
				}
				job := jobs[next]
				next++
				mu.Unlock()
				if err := job(); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// check compares a response with the request's expectation.
func (r *request) check(resp any) error {
	switch v := resp.(type) {
	case client.SolveResponse:
		if v.Exists != r.want.exists {
			return fmt.Errorf("exists = %v, want %v", v.Exists, r.want.exists)
		}
	case client.CertainResponse:
		got := certainWant{name: r.want.certain.name, solExists: v.SolutionExists, certain: v.Certain, answers: v.Answers}
		return sameCertain(got, r.want.certain)
	case client.CertainBatchResponse:
		if len(v.Results) != len(r.want.batch) {
			return fmt.Errorf("batch returned %d results, want %d", len(v.Results), len(r.want.batch))
		}
		for k, res := range v.Results {
			got := certainWant{name: res.Name, solExists: res.SolutionExists, certain: res.Certain, answers: res.Answers}
			if err := sameCertain(got, r.want.batch[k]); err != nil {
				return fmt.Errorf("batch query %d: %w", k, err)
			}
		}
	case client.AppendResponse:
		w := r.want.app
		if v.ID != w.ID || v.Parent != w.Parent || v.Added != w.Added || v.Facts != w.Facts {
			return fmt.Errorf("append = {%s %s +%d %d}, want {%s %s +%d %d}", v.ID, v.Parent, v.Added, v.Facts, w.ID, w.Parent, w.Added, w.Facts)
		}
	default:
		return fmt.Errorf("unexpected response %T", resp)
	}
	return nil
}

func sameCertain(got, want certainWant) error {
	if got.name != want.name || got.solExists != want.solExists || got.certain != want.certain ||
		(len(got.answers) > 0 || len(want.answers) > 0) && !reflect.DeepEqual(got.answers, want.answers) {
		return fmt.Errorf("certain %s = {%v %v %s}, want {%v %v %s}", want.name,
			got.solExists, got.certain, rows(got.answers), want.solExists, want.certain, rows(want.answers))
	}
	return nil
}

func rows(a [][]string) string {
	parts := make([]string, len(a))
	for k, r := range a {
		parts[k] = "(" + strings.Join(r, ",") + ")"
	}
	return "[" + strings.Join(parts, " ") + "]"
}
