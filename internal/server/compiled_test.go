package server

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/qplan"
	"repro/internal/workload"
	"repro/pde"
	"repro/pde/client"
)

// keyedSetting carries a target egd, which keeps it off the compiled
// certain-answer path (reason "target-deps") while remaining a valid
// setting for the enumeration path.
const keyedSetting = `
setting keyed
source E/2
target H/2
st: E(x,y) -> H(x,y)
ts: H(x,y) -> E(x,y)
t: H(x,y), H(x,z) -> y = z
`

// TestCertainBatchEndToEnd drives /v1/certain-answers/batch over a
// compilable setting and checks the results agree with the singular
// endpoint, the compiled flag is set, and the plan-cache counters move.
func TestCertainBatchEndToEnd(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	reg, err := c.Register(ctx, example1)
	if err != nil {
		t.Fatal(err)
	}
	source := "E(a,b). E(b,c). E(a,c)."
	queries := []string{
		"q1(x,y) :- H(x,y)",
		"q2(x) :- H(x,y)",
		"q3 :- H(x,y)",
	}
	batch, err := c.CertainBatch(ctx, client.CertainBatchRequest{
		SettingID: reg.ID, Source: source, Queries: queries,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != len(queries) {
		t.Fatalf("results = %d, want %d", len(batch.Results), len(queries))
	}
	if batch.CacheHit {
		t.Error("compiled batch should not have touched the chase cache")
	}
	for n, q := range queries {
		got := batch.Results[n]
		if !got.Compiled || got.FallbackReason != "" {
			t.Errorf("query %d not compiled: %+v", n, got)
		}
		single, err := c.CertainAnswers(ctx, client.CertainRequest{
			SettingID: reg.ID, Source: source, Query: q,
		})
		if err != nil {
			t.Fatalf("single query %d: %v", n, err)
		}
		if got.SolutionExists != single.SolutionExists || got.Certain != single.Certain ||
			len(got.Answers) != len(single.Answers) {
			t.Errorf("query %d: batch %+v != single %+v", n, got, single)
		}
		for k := range got.Answers {
			if strings.Join(got.Answers[k], ",") != strings.Join(single.Answers[k], ",") {
				t.Errorf("query %d row %d: %v != %v", n, k, got.Answers[k], single.Answers[k])
			}
		}
	}
	if batch.Results[0].Name != "q1" || batch.Results[2].Name != "q3" {
		t.Errorf("result names wrong: %+v", batch.Results)
	}
	// The batch compiled three plans; the singles reused every one.
	if misses := metricsValue(t, c, "pdxd_plan_cache_misses_total"); misses != 3 {
		t.Errorf("plan cache misses = %d, want 3", misses)
	}
	if hits := metricsValue(t, c, "pdxd_plan_cache_hits_total"); hits != 3 {
		t.Errorf("plan cache hits = %d, want 3", hits)
	}

	// A second identical batch is all plan-cache hits.
	if _, err := c.CertainBatch(ctx, client.CertainBatchRequest{
		SettingID: reg.ID, Source: source, Queries: queries,
	}); err != nil {
		t.Fatal(err)
	}
	if hits := metricsValue(t, c, "pdxd_plan_cache_hits_total"); hits != 6 {
		t.Errorf("plan cache hits after second batch = %d, want 6", hits)
	}

	// Eviction drops the setting's cached plans with it.
	if err := c.Evict(ctx, reg.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(ctx, example1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CertainAnswers(ctx, client.CertainRequest{
		SettingID: reg.ID, Source: source, Query: queries[0],
	}); err != nil {
		t.Fatal(err)
	}
	if misses := metricsValue(t, c, "pdxd_plan_cache_misses_total"); misses != 4 {
		t.Errorf("plan cache misses after evict+re-register = %d, want 4 (plan recompiled)", misses)
	}

	// Malformed batches are rejected before admission.
	if _, err := c.CertainBatch(ctx, client.CertainBatchRequest{SettingID: reg.ID, Source: source}); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := c.CertainBatch(ctx, client.CertainBatchRequest{
		SettingID: reg.ID, Source: source, Queries: []string{"q(x) :- Nope(x)"},
	}); err == nil {
		t.Error("batch with unknown relation accepted")
	}
}

// TestCertainCompiledFallbackMetrics registers a setting outside the
// compilable fragment and checks certain-answer requests fall back to
// enumeration, surface the typed reason, and move the labelled
// fallback counter (singular and batch endpoints).
func TestCertainCompiledFallbackMetrics(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	reg, err := c.Register(ctx, keyedSetting)
	if err != nil {
		t.Fatal(err)
	}
	source := "E(a,b)."
	ca, err := c.CertainAnswers(ctx, client.CertainRequest{
		SettingID: reg.ID, Source: source, Query: "q(x,y) :- H(x,y)",
	})
	if err != nil {
		t.Fatal(err)
	}
	if ca.Compiled || ca.FallbackReason != qplan.FallbackTargetDeps {
		t.Fatalf("fallback response: %+v, want reason %q", ca, qplan.FallbackTargetDeps)
	}
	if !ca.SolutionExists || len(ca.Answers) != 1 || ca.Answers[0][0] != "a" || ca.Answers[0][1] != "b" {
		t.Fatalf("enumeration answers: %+v, want [a b]", ca)
	}

	batch, err := c.CertainBatch(ctx, client.CertainBatchRequest{
		SettingID: reg.ID, Source: source,
		Queries: []string{"q1(x,y) :- H(x,y)", "q2 :- H(x,y)"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !batch.CacheHit {
		t.Error("batch enumeration should reuse the chased artifact cached by the singular call")
	}
	for n, got := range batch.Results {
		if got.Compiled || got.FallbackReason != qplan.FallbackTargetDeps {
			t.Errorf("batch result %d: %+v, want enumeration fallback", n, got)
		}
	}
	if !batch.Results[1].Certain || !batch.Results[1].SolutionExists {
		t.Errorf("boolean fallback result: %+v, want certain", batch.Results[1])
	}

	series := `pdxd_certain_compiled_fallbacks_total{reason="` + qplan.FallbackTargetDeps + `"}`
	if v := metricsValue(t, c, series); v != 3 {
		t.Errorf("%s = %d, want 3 (one singular + two batch)", series, v)
	}
	if v := metricsValue(t, c, `pdxd_certain_compiled_fallbacks_total{reason="instance-nulls"}`); v != 0 {
		t.Errorf("unexpected instance-nulls fallbacks: %d", v)
	}
}

// lavBatch returns n queries of two shapes over the LAV setting — open
// group lookups and Boolean person-in-group checks — as cold-inline
// traffic sends them. Each shift moves every query to other constants
// of the lavServing instance (60 persons in 6 groups).
func lavBatch(n, shift int) []string {
	qs := make([]string, n)
	for k := range qs {
		if k%2 == 0 {
			qs[k] = fmt.Sprintf("q%d(x) :- Rec(x, 'g%d', u)", k, (k/2+shift)%6)
		} else {
			qs[k] = fmt.Sprintf("b%d :- Rec('p%d', 'g%d', u)", k, (k+7*shift)%60, (k+shift)%6)
		}
	}
	return qs
}

// lavServing registers the LAV setting and returns its ID and a source
// instance for lavBatch.
func lavServing(t *testing.T, c *client.Client) (string, string) {
	t.Helper()
	reg, err := c.Register(context.Background(), pde.FormatSetting(workload.LAVSetting()))
	if err != nil {
		t.Fatal(err)
	}
	i, _ := workload.LAVInstance(60, true, rand.New(rand.NewSource(5)))
	return reg.ID, pde.FormatInstance(i)
}

// TestCertainBatchShapeTemplates checks the plan cache keys by query
// shape: two batches with different fresh constants compile one
// template per shape, the second batch is all hits, and every answer
// equals the singular endpoint's.
func TestCertainBatchShapeTemplates(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	id, src := lavServing(t, c)

	const n = 32
	var wantHits int64
	for round := 0; round < 2; round++ {
		qs := lavBatch(n, round)
		batch, err := c.CertainBatch(ctx, client.CertainBatchRequest{SettingID: id, Source: src, Queries: qs})
		if err != nil {
			t.Fatal(err)
		}
		if misses := metricsValue(t, c, "pdxd_plan_cache_misses_total"); misses != 2 {
			t.Errorf("round %d: plan cache misses = %d, want 2 (one per shape)", round, misses)
		}
		wantHits += n
		if round == 0 {
			wantHits -= 2 // the first query of each shape compiled
		}
		if hits := metricsValue(t, c, "pdxd_plan_cache_hits_total"); hits != wantHits {
			t.Errorf("round %d: plan cache hits = %d, want %d", round, hits, wantHits)
		}
		answered := 0
		for k, q := range qs {
			got := batch.Results[k]
			single, err := c.CertainAnswers(ctx, client.CertainRequest{SettingID: id, Source: src, Query: q})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Compiled || got.SolutionExists != single.SolutionExists || got.Certain != single.Certain ||
				!reflect.DeepEqual(got.Answers, single.Answers) {
				t.Errorf("round %d %s: batch %+v, single %+v", round, q, got, single)
			}
			if len(got.Answers) > 0 || got.Certain {
				answered++
			}
			wantHits++
		}
		if answered == 0 {
			t.Errorf("round %d answered nothing; the test data does not exercise the plans", round)
		}
		if hits := metricsValue(t, c, "pdxd_plan_cache_hits_total"); hits != wantHits {
			t.Errorf("round %d: plan cache hits after singles = %d, want %d", round, hits, wantHits)
		}
	}
}

// TestCertainBatchConcurrentShapes sends batches with distinct
// constants from several goroutines at once, all sharing one template
// per shape (run under -race), and checks each answer against a plan
// compiled for that very query.
func TestCertainBatchConcurrentShapes(t *testing.T) {
	_, c := newTestServer(t, Config{MaxInFlight: 4, MaxQueue: 16})
	ctx := context.Background()
	id, src := lavServing(t, c)
	st := workload.LAVSetting()
	i, err := pde.ParseInstance(src)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			qs := lavBatch(24, w)
			batch, err := c.CertainBatch(ctx, client.CertainBatchRequest{SettingID: id, Source: src, Queries: qs})
			if err != nil {
				t.Error(err)
				return
			}
			for k, text := range qs {
				q, err := pde.ParseQueries(text)
				if err != nil {
					t.Error(err)
					return
				}
				plan, err := pde.CompileCertain(st, q[0])
				if err != nil {
					t.Error(err)
					return
				}
				want, err := plan.Eval(i, nil, pde.CompiledEvalOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				got := batch.Results[k]
				if got.Certain != want.Certain || len(got.Answers) != len(want.Answers) {
					t.Errorf("worker %d %s: batch %+v, want %+v", w, text, got, want)
					continue
				}
				for r, row := range want.Answers {
					if got.Answers[r][0] != row[0].String() {
						t.Errorf("worker %d %s row %d: %v, want %v", w, text, r, got.Answers[r], row)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if misses := metricsValue(t, c, "pdxd_plan_cache_misses_total"); misses > 2*4 {
		t.Errorf("plan cache misses = %d, want at most one per shape per racing worker", misses)
	}
}
