package core_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/rel"
	"repro/internal/snap"
	"repro/internal/workload"
	"repro/pde"
)

// Properties of the prepared image search a CanonicalTarget carries:
// the first solve over a target builds it, later solves reuse it, and
// both must decide SOL(P) as the exhaustive oracle does and match each
// other — and the unprepared search — byte for byte on witness,
// enumeration order and SolveStats.

// factsText renders an instance in its insertion order (Facts order),
// so two renderings are equal only when the tuples were added in the
// same order.
func factsText(inst *rel.Instance) string {
	if inst == nil {
		return "<none>"
	}
	var b strings.Builder
	for _, f := range inst.Facts() {
		b.WriteString(f.String())
		b.WriteString(";")
	}
	return b.String()
}

// keyedPair returns the keyed setting of examples/settings/keyed.pde
// and a clean pair of n keys: E(a_k, b_k) in the source and H(a_k, b_k)
// for odd k in the target. Its J_can has no nulls and a solution
// exists.
func keyedPair(t *testing.T, n int) (*core.Setting, *rel.Instance, *rel.Instance) {
	t.Helper()
	s, err := pde.ParseSetting(`
setting keyed
source E/2
target H/2
st: E(x,y) -> H(x,y)
ts: H(x,y) -> E(x,y)
t: H(x,y), H(x,z) -> y = z
`)
	if err != nil {
		t.Fatal(err)
	}
	i, j := rel.NewInstance(), rel.NewInstance()
	for k := 0; k < n; k++ {
		a, b := rel.Const(fmt.Sprintf("a%d", k)), rel.Const(fmt.Sprintf("b%d", k))
		i.Add("E", a, b)
		if k%2 == 1 {
			j.Add("H", a, b)
		}
	}
	return s, i, j
}

// existsTrace renders one exists-solution call over ct: verdict,
// witness and statistics.
func existsTrace(t *testing.T, s *core.Setting, i, j *rel.Instance, ct *core.CanonicalTarget, opts core.SolveOptions) string {
	t.Helper()
	ok, wit, stats, err := core.ExistsSolutionGenericFrom(s, i, j, ct, opts)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return fmt.Sprintf("ok=%v stats=%+v witness=%s", ok, *stats, factsText(wit))
}

// enumTrace renders a full enumeration over ct: every image solution in
// enumeration order, then the statistics.
func enumTrace(t *testing.T, s *core.Setting, i, j *rel.Instance, ct *core.CanonicalTarget, opts core.SolveOptions) string {
	t.Helper()
	var b strings.Builder
	stats, err := core.ForEachImageSolutionFrom(s, i, j, ct, opts, func(sol *rel.Instance) bool {
		b.WriteString(factsText(sol))
		b.WriteString("\n")
		return true
	})
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	fmt.Fprintf(&b, "stats=%+v", *stats)
	return b.String()
}

// checkPrepared runs the prepared-search properties on one (s, i, j)
// and the canonical targets fresh builds (a chase, a resume, a
// decode): each fresh target is prepared by its first solve — once by
// an exists-solution, once by an enumeration — and every later solve
// must match that first one byte for byte, with the oracle's verdict
// want. With fromScratch, fresh is a plain chase of (s, i, j) and the
// exists traces must also equal the unprepared search's (which
// ExistsSolutionGeneric runs); resumed and decoded targets may differ
// from a fresh chase in null labels and fact order, so they are held to
// their own first solve only. It reports whether J_can had nulls.
func checkPrepared(t *testing.T, what string, s *core.Setting, i, j *rel.Instance, want, fromScratch bool, fresh func() *core.CanonicalTarget) bool {
	t.Helper()
	var hadNulls bool
	for _, par := range []int{1, 4} {
		opts := core.SolveOptions{MaxNodes: 1_000_000, Parallelism: par}
		byExists := fresh()
		ok, wit, stats, err := core.ExistsSolutionGenericFrom(s, i, j, byExists, opts)
		if err != nil {
			t.Fatalf("%s par=%d: first solve: %v", what, par, err)
		}
		if ok != want {
			t.Fatalf("%s par=%d: first solve verdict %v, oracle %v", what, par, ok, want)
		}
		ref := fmt.Sprintf("ok=%v stats=%+v witness=%s", ok, *stats, factsText(wit))
		hadNulls = stats.NullCount > 0
		if fromScratch {
			refOK, refWit, refStats, err := core.ExistsSolutionGeneric(s, i, j, opts)
			if err != nil {
				t.Fatalf("%s par=%d: unprepared solve: %v", what, par, err)
			}
			if scratch := fmt.Sprintf("ok=%v stats=%+v witness=%s", refOK, *refStats, factsText(refWit)); scratch != ref {
				t.Fatalf("%s par=%d: preparing solve diverged from the unprepared search\n got %s\nwant %s", what, par, ref, scratch)
			}
		}
		for k := 0; k < 2; k++ {
			if got := existsTrace(t, s, i, j, byExists, opts); got != ref {
				t.Fatalf("%s par=%d: later solve %d diverged from the first\n got %s\nwant %s", what, par, k, got, ref)
			}
		}
		byEnum := fresh()
		firstEnum := enumTrace(t, s, i, j, byEnum, opts)
		for _, ct := range []*core.CanonicalTarget{byEnum, byExists} {
			if got := enumTrace(t, s, i, j, ct, opts); got != firstEnum {
				t.Fatalf("%s par=%d: later enumeration diverged\n got %s\nwant %s", what, par, got, firstEnum)
			}
		}
		if got := existsTrace(t, s, i, j, byEnum, opts); got != ref {
			t.Fatalf("%s par=%d: solve after an enumeration prepared the target\n got %s\nwant %s", what, par, got, ref)
		}
	}
	return hadNulls
}

// TestPreparedSearchAgainstOracle: over the oracle's random settings
// (target egds, full target tgds, disjunctive Σts, failing Σt chases),
// the solve that prepares a target and every later one agree with
// ExhaustiveSOL and with the unprepared search, at Parallelism 1 and
// 4, for J_can with and without nulls. The same holds for targets
// decoded from the snapshot wire format, which carry no prepared
// search: it is never serialized, so preparing a target leaves its
// encoding unchanged.
func TestPreparedSearchAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1201))
	withNulls, withoutNulls := 0, 0
	for trial := 0; trial < 40; trial++ {
		s := oracle.RandomSetting(rng)
		i, j := oracle.RandomInstance(rng)
		want, err := oracle.ExhaustiveSOL(s, i, j, oracle.Config{})
		if err != nil {
			t.Fatal(err)
		}
		chase := func() *core.CanonicalTarget {
			ct, err := core.ChaseCanonicalTarget(s, i, j, core.SolveOptions{})
			if err != nil {
				t.Fatalf("trial %d: chase: %v", trial, err)
			}
			return ct
		}
		if checkPrepared(t, fmt.Sprintf("trial %d", trial), s, i, j, want, true, chase) {
			withNulls++
		} else {
			withoutNulls++
		}

		ct := chase()
		entry := &snap.Entry{
			SettingID:  fmt.Sprintf("sha256:s%063d", trial),
			SourceID:   fmt.Sprintf("sha256:i%063d", trial),
			TargetID:   fmt.Sprintf("sha256:j%063d", trial),
			Kind:       snap.KindGeneric,
			SourceText: pde.FormatInstance(i),
			TargetText: pde.FormatInstance(j),
			Generic:    ct,
		}
		cold, err := snap.Encode(entry)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		existsTrace(t, s, i, j, ct, core.SolveOptions{})
		warm, err := snap.Encode(entry)
		if err != nil {
			t.Fatalf("trial %d: encode prepared: %v", trial, err)
		}
		if string(cold) != string(warm) {
			t.Fatalf("trial %d: preparing the target changed its encoding", trial)
		}
		decode := func() *core.CanonicalTarget {
			e, err := snap.Decode(cold)
			if err != nil {
				t.Fatalf("trial %d: decode: %v", trial, err)
			}
			return e.Generic
		}
		checkPrepared(t, fmt.Sprintf("trial %d decoded", trial), s, i, j, want, false, decode)
	}
	if withNulls == 0 || withoutNulls == 0 {
		t.Fatalf("coverage: %d trials with nulls in J_can, %d without; want both", withNulls, withoutNulls)
	}
}

// TestPreparedSearchAfterResume: targets produced by
// ResumeCanonicalTarget prepare on their first solve and then behave
// like fresh ones, round after round of appends.
func TestPreparedSearchAfterResume(t *testing.T) {
	rng := rand.New(rand.NewSource(1202))
	oracleRounds := 0
	for trial := 0; trial < 20; trial++ {
		s := oracle.RandomSetting(rng)
		i, j := oracle.RandomInstance(rng)
		ct, err := core.ChaseCanonicalTarget(s, i, j, core.SolveOptions{})
		if err != nil {
			t.Fatalf("trial %d: base chase: %v", trial, err)
		}
		existsTrace(t, s, i, j, ct, core.SolveOptions{}) // prepare the base
		for round := 0; round < 2; round++ {
			appended := rel.NewInstance()
			dom := []rel.Value{rel.Const("a"), rel.Const("b"), rel.Const(fmt.Sprintf("c%d", round))}
			switch rng.Intn(3) {
			case 0:
				appended.Add("A", dom[rng.Intn(len(dom))])
			case 1:
				appended.Add("B", dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))])
			default:
				appended.Add("T", dom[rng.Intn(len(dom))], dom[rng.Intn(len(dom))])
			}
			i = rel.Union(i, appended.Restrict(s.Source))
			j = rel.Union(j, appended.Restrict(s.Target))
			appended.Freeze()
			prev := ct
			resume := func() *core.CanonicalTarget {
				next, _, _, err := core.ResumeCanonicalTarget(s, prev, appended, core.SolveOptions{})
				if err != nil {
					t.Fatalf("trial %d round %d: resume: %v", trial, round, err)
				}
				return next
			}
			// Appends grow the candidate space, and the oracle's cost
			// doubles with each candidate fact. Rounds past a cap of 20
			// check against the unprepared search alone (itself
			// oracle-checked above and in oracle_test).
			want, err := oracle.ExhaustiveSOL(s, i, j, oracle.Config{MaxCandidates: 20})
			if err != nil {
				want, _, _, err = core.ExistsSolutionGeneric(s, i, j, core.SolveOptions{MaxNodes: 1_000_000})
				if err != nil {
					t.Fatalf("trial %d round %d: unprepared solve: %v", trial, round, err)
				}
			} else {
				oracleRounds++
			}
			checkPrepared(t, fmt.Sprintf("trial %d round %d", trial, round), s, i, j, want, false, resume)
			ct = resume()
		}
	}
	if oracleRounds < 15 {
		t.Fatalf("only %d resumed rounds fit the oracle; generator drifted", oracleRounds)
	}
}

// TestPreparedSearchConcurrentSolves: many solves share one target
// while its first build runs under a canceled context. A canceled
// build is never kept — every solve with a live context returns the
// unprepared search's exact answer — and a canceled solve reports the
// cancellation, never a verdict. Run under -race.
func TestPreparedSearchConcurrentSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(1204))
	type pair struct {
		name string
		s    *core.Setting
		i, j *rel.Instance
	}
	keyed, ki, kj := keyedPair(t, 60)
	li, lj := workload.LAVInstance(40, true, rng)
	cases := []pair{
		{"keyed (J_can null-free)", keyed, ki, kj},
		{"lav (J_can with nulls)", workload.LAVSetting(), li, lj},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.SolveOptions{Parallelism: 2}
			refOK, refWit, refStats, err := core.ExistsSolutionGeneric(tc.s, tc.i, tc.j, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := fmt.Sprintf("ok=%v stats=%+v witness=%s", refOK, *refStats, factsText(refWit))
			ct, err := core.ChaseCanonicalTarget(tc.s, tc.i, tc.j, opts)
			if err != nil {
				t.Fatal(err)
			}

			// A build under an already-canceled context fails and is
			// not kept.
			dead, cancel := context.WithCancel(context.Background())
			cancel()
			deadOpts := opts
			deadOpts.Ctx = dead
			if _, _, _, err := core.ExistsSolutionGenericFrom(tc.s, tc.i, tc.j, ct, deadOpts); !errors.Is(err, core.ErrCanceled) {
				t.Fatalf("solve under a canceled context: err=%v, want ErrCanceled", err)
			}

			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					o := opts
					if w%2 == 1 {
						// Canceled at a random point: before, during or
						// after the build this solve may be running.
						ctx, cancel := context.WithCancel(context.Background())
						o.Ctx = ctx
						go cancel()
					}
					ok, wit, stats, err := core.ExistsSolutionGenericFrom(tc.s, tc.i, tc.j, ct, o)
					if err != nil {
						if o.Ctx == nil || !errors.Is(err, core.ErrCanceled) {
							t.Errorf("worker %d: %v", w, err)
						}
						return
					}
					if got := fmt.Sprintf("ok=%v stats=%+v witness=%s", ok, *stats, factsText(wit)); got != ref {
						t.Errorf("worker %d:\n got %s\nwant %s", w, got, ref)
					}
				}(w)
			}
			wg.Wait()
			if got := existsTrace(t, tc.s, tc.i, tc.j, ct, opts); got != ref {
				t.Fatalf("solve after the concurrent burst:\n got %s\nwant %s", got, ref)
			}
		})
	}
}

// TestPreparedSearchWitnessOwnership: every solve hands out its own
// witness; mutating one never reaches the prepared search or the next
// solve's witness.
func TestPreparedSearchWitnessOwnership(t *testing.T) {
	rng := rand.New(rand.NewSource(1205))
	keyed, ki, kj := keyedPair(t, 20)
	li, lj := workload.LAVInstance(20, true, rng)
	for _, tc := range []struct {
		s    *core.Setting
		i, j *rel.Instance
	}{{keyed, ki, kj}, {workload.LAVSetting(), li, lj}} {
		s, i, j := tc.s, tc.i, tc.j
		ct, err := core.ChaseCanonicalTarget(s, i, j, core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ok, first, _, err := core.ExistsSolutionGenericFrom(s, i, j, ct, core.SolveOptions{})
		if err != nil || !ok {
			t.Fatalf("%s: first solve: ok=%v err=%v", s.Name, ok, err)
		}
		want := factsText(first)
		first.Add("Extra", rel.Const("intruder"))
		var sols []*rel.Instance
		if _, err := core.ForEachImageSolutionFrom(s, i, j, ct, core.SolveOptions{}, func(sol *rel.Instance) bool {
			sols = append(sols, sol)
			return false
		}); err != nil {
			t.Fatal(err)
		}
		sols[0].Add("Extra", rel.Const("intruder2"))
		_, again, _, err := core.ExistsSolutionGenericFrom(s, i, j, ct, core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := factsText(again); got != want {
			t.Fatalf("%s: a mutated witness leaked into the next solve:\n got %s\nwant %s", s.Name, got, want)
		}
		if again == first || again == sols[0] {
			t.Fatalf("%s: solves returned a shared witness", s.Name)
		}
	}
}
