package qplan

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/oracle"
	"repro/internal/rel"
	"repro/internal/workload"
)

// The probe kernel (SettingPlan.SolutionExists) is checked here against
// references that share no code with it: the Figure 3 algorithm
// (core.ExistsSolutionTractable) on every case, and the exhaustive
// oracle on tiny instances. TestCompiledParityRandom cannot serve: its
// reference, certain.* over a CanonicalTarget, runs the generic image
// search, which is optimized beside the probes.

// checkProbe asserts that the probes decide SOL(P) on (i, j) exactly as
// Figure 3 does, at Parallelism 1 and 4, and returns the verdict.
func checkProbe(t *testing.T, what string, s *core.Setting, i, j *rel.Instance) bool {
	t.Helper()
	sp, err := CompileSetting(s)
	if err != nil {
		t.Fatalf("%s: CompileSetting: %v", what, err)
	}
	want, _, err := core.ExistsSolutionTractable(s, i, j, core.TractableOptions{})
	if err != nil {
		t.Fatalf("%s: Figure 3: %v", what, err)
	}
	for _, par := range []int{1, 4} {
		got, err := sp.SolutionExists(i, j, EvalOptions{Parallelism: par})
		if err != nil {
			t.Fatalf("%s par=%d: probes: %v", what, par, err)
		}
		if got != want {
			t.Fatalf("%s par=%d: probes say %v, Figure 3 says %v\nsetting: %v\nI:\n%s\nJ:\n%s", what, par, got, want, s.TS, i, j)
		}
	}
	return want
}

// TestProbeMatchesFigure3Random: the random compilable settings mix
// ground Σts heads, heads with constants and heads with existential
// variables; both verdicts must occur.
func TestProbeMatchesFigure3Random(t *testing.T) {
	verdicts := map[bool]int{}
	ground, existential := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := workload.RandomCompilableSetting(rng)
		i, j := workload.RandomCompilableInstance(rng)
		verdicts[checkProbe(t, fmt.Sprintf("seed %d", seed), s, i, j)]++
		sp, _ := CompileSetting(s)
		for pi := range sp.probes {
			if sp.probes[pi].ground {
				ground++
			} else {
				existential++
			}
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 || ground == 0 || existential == 0 {
		t.Fatalf("coverage: verdicts %v, %d ground and %d existential probe heads", verdicts, ground, existential)
	}
}

// TestProbeMatchesFigure3LAV: LAV's ground head Member(x,g), with and
// without the withheld Member fact that makes the pair unsolvable.
func TestProbeMatchesFigure3LAV(t *testing.T) {
	s := workload.LAVSetting()
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 10, 200} {
		for _, solvable := range []bool{true, false} {
			i, j := workload.LAVInstance(n, solvable, rng)
			if got := checkProbe(t, fmt.Sprintf("n=%d solvable=%v", n, solvable), s, i, j); got != solvable {
				t.Fatalf("n=%d: verdict %v, want %v", n, got, solvable)
			}
		}
	}
}

// TestProbeMatchesFigure3FullST: FullST's existential head Adj(x,u),
// and its join body H(x,y), H(y,z) whose (x,z) rows repeat across
// middle vertices.
func TestProbeMatchesFigure3FullST(t *testing.T) {
	s := workload.FullSTSetting()
	rng := rand.New(rand.NewSource(6))
	verdicts := map[bool]int{}
	for _, n := range []int{4, 30, 120} {
		for _, solvable := range []bool{true, false} {
			// The generator's withheld P2 fact may also arise from
			// another path, so its "unsolvable" is not guaranteed; the
			// verdict is Figure 3's.
			i, j := workload.FullSTInstance(n, solvable, rng)
			verdicts[checkProbe(t, fmt.Sprintf("n=%d solvable=%v", n, solvable), s, i, j)]++
		}
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("coverage: verdicts %v", verdicts)
	}

	v := func(name string) rel.Value { return rel.Const(name) }
	// a→b1→c and a→b2→c: the row (a, c) comes out twice.
	diamond := func(p2, adjA bool) *rel.Instance {
		i := rel.NewInstance()
		for _, e := range [][2]string{{"a", "b1"}, {"b1", "c"}, {"a", "b2"}, {"b2", "c"}} {
			i.Add("E", v(e[0]), v(e[1]))
		}
		for _, x := range []string{"b1", "b2"} {
			i.Add("Adj", v(x), v("w"))
		}
		if adjA {
			i.Add("Adj", v("a"), v("anything"))
		}
		if p2 {
			i.Add("P2", v("a"), v("c"))
		}
		return i
	}
	for _, tc := range []struct {
		name      string
		p2, adjA  bool
		wantExist bool
	}{
		{"repeated row satisfied", true, true, true},
		{"repeated row violated", false, true, false},
		{"existential head violated", true, false, false},
	} {
		if got := checkProbe(t, tc.name, s, diamond(tc.p2, tc.adjA), rel.NewInstance()); got != tc.wantExist {
			t.Fatalf("%s: verdict %v, want %v", tc.name, got, tc.wantExist)
		}
	}
}

// TestProbeMatchesOracleTiny: on instances small enough for the
// exhaustive oracle, the probes, Figure 3 and brute force agree — over
// FullST (existential head, join body) on three vertices and a unary
// ground-head setting.
func TestProbeMatchesOracleTiny(t *testing.T) {
	unary := &core.Setting{
		Name:   "unary-ground",
		Source: rel.SchemaOf("S", 2, "M", 1),
		Target: rel.SchemaOf("T", 1),
		ST: []dep.TGD{{
			Label: "st",
			Body:  []dep.Atom{dep.NewAtom("S", dep.Var("x"), dep.Var("y"))},
			Head:  []dep.Atom{dep.NewAtom("T", dep.Var("x"))},
		}},
		TS: []dep.TGD{{
			Label: "ts",
			Body:  []dep.Atom{dep.NewAtom("T", dep.Var("x"))},
			Head:  []dep.Atom{dep.NewAtom("M", dep.Var("x"))},
		}},
	}
	full := workload.FullSTSetting()
	rng := rand.New(rand.NewSource(7))
	dom := []rel.Value{rel.Const("a"), rel.Const("b"), rel.Const("c")}
	pick := func() rel.Value { return dom[rng.Intn(len(dom))] }
	verdicts := map[bool]int{}
	for trial := 0; trial < 60; trial++ {
		s := unary
		i, j := rel.NewInstance(), rel.NewInstance()
		if trial%2 == 0 {
			for k := 0; k < 1+rng.Intn(3); k++ {
				i.Add("S", pick(), pick())
			}
			for k := 0; k < rng.Intn(3); k++ {
				i.Add("M", pick())
			}
			if rng.Intn(2) == 0 {
				j.Add("T", pick())
			}
		} else {
			s = full
			for k := 0; k < 1+rng.Intn(3); k++ {
				i.Add("E", pick(), pick())
			}
			for k := 0; k < rng.Intn(4); k++ {
				i.Add("P2", pick(), pick())
			}
			for k := 0; k < rng.Intn(3); k++ {
				i.Add("Adj", pick(), pick())
			}
		}
		// Both settings have full st-tgds with at most three
		// triggers here, so a solution never needs more than three
		// facts beyond J: MaxFacts 3 keeps the oracle complete.
		want, err := oracle.ExhaustiveSOL(s, i, j, oracle.Config{FreshValues: 1, MaxFacts: 3})
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		if got := checkProbe(t, fmt.Sprintf("trial %d", trial), s, i, j); got != want {
			t.Fatalf("trial %d: probes and Figure 3 say %v, oracle %v\nI:\n%s\nJ:\n%s", trial, got, want, i, j)
		}
		verdicts[want]++
	}
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("coverage: verdicts %v", verdicts)
	}
}
