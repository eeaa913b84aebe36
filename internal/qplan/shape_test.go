package qplan

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/certain"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/rel"
	"repro/internal/workload"
)

// withConstants rewrites a random target query so that it carries
// constants of every kind a shape must handle: fresh ones, repeated
// ones (a small pool), and ones the setting mentions ('a' and 'b' occur
// in the heads of RandomCompilableSetting's Σts tgds). Head variables
// stay variables.
func withConstants(rng *rand.Rand, q certain.UCQ) certain.UCQ {
	pool := []string{"a", "b", "c", "c", "d", fmt.Sprintf("k%d", rng.Intn(1000))}
	out := make(certain.UCQ, len(q))
	for n, cq := range q {
		head := make(map[string]bool)
		for _, h := range cq.Head {
			head[h] = true
		}
		body := make([]dep.Atom, len(cq.Body))
		for k, a := range cq.Body {
			args := append([]dep.Term(nil), a.Args...)
			for p, t := range args {
				if (t.IsConst || !head[t.Name]) && rng.Intn(3) == 0 {
					args[p] = dep.Cst(pool[rng.Intn(len(pool))])
				}
			}
			body[k] = dep.NewAtom(a.Rel, args...)
		}
		out[n] = certain.CQ{Name: cq.Name, Head: cq.Head, Body: body}
	}
	return out
}

// renameLifted returns q renamed to name, with its lifted constants
// mapped injectively onto other constants the setting does not
// mention, and its variables renamed: a query of the same shape.
func renameLifted(sp *SettingPlan, rng *rand.Rand, q certain.UCQ, name string) certain.UCQ {
	_, params := sp.ShapeOf(q)
	var free []string
	for _, c := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		if !sp.constants[c] {
			free = append(free, c)
		}
	}
	rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
	to := make(map[string]string)
	for k, v := range params {
		if k < len(free) {
			to[v.ConstText()] = free[k]
		} else {
			to[v.ConstText()] = fmt.Sprintf("z%d", k)
		}
	}
	out := make(certain.UCQ, len(q))
	for n, cq := range q {
		head := make([]string, len(cq.Head))
		for k, h := range cq.Head {
			head[k] = "r_" + h
		}
		body := make([]dep.Atom, len(cq.Body))
		for k, a := range cq.Body {
			args := make([]dep.Term, len(a.Args))
			for p, t := range a.Args {
				switch {
				case !t.IsConst:
					args[p] = dep.Var("r_" + t.Name)
				case to[t.Name] != "":
					args[p] = dep.Cst(to[t.Name])
				default:
					args[p] = t
				}
			}
			body[k] = dep.NewAtom(a.Rel, args...)
		}
		out[n] = certain.CQ{Name: name, Head: head, Body: body}
	}
	return out
}

// TestTemplateMatchesCompileQuery is the property behind the shape-keyed
// plan cache: a template compiled from one query, bound with the
// parameters of another query of the same shape, renders and evaluates
// byte-identically to CompileQuery on that other query, at Parallelism
// 1 and 4.
func TestTemplateMatchesCompileQuery(t *testing.T) {
	const cases = 300
	lifted, literal := 0, 0
	for seed := int64(0); seed < cases; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := workload.RandomCompilableSetting(rng)
		sp, err := CompileSetting(s)
		if err != nil {
			t.Fatalf("seed %d: CompileSetting: %v", seed, err)
		}
		i, j := workload.RandomCompilableInstance(rng)
		ex, err := sp.SolutionExists(i, j, EvalOptions{})
		if err != nil {
			t.Fatalf("seed %d: SolutionExists: %v", seed, err)
		}
		q := withConstants(rng, workload.RandomTargetQuery(rng, rng.Intn(2) == 0))
		q2 := renameLifted(sp, rng, q, "other")

		key, _ := sp.ShapeOf(q)
		key2, params2 := sp.ShapeOf(q2)
		if key != key2 {
			t.Fatalf("seed %d: renamed query changed shape:\n%v -> %s\n%v -> %s", seed, q, key, q2, key2)
		}
		lifted += len(params2)
		for _, cq := range q {
			for _, a := range cq.Body {
				for _, tm := range a.Args {
					if tm.IsConst && sp.constants[tm.Name] {
						literal++
					}
				}
			}
		}

		tmpl, err := sp.CompileTemplate(q)
		want, werr := sp.CompileQuery(q2)
		if ReasonOf(err) != ReasonOf(werr) || (err == nil) != (werr == nil) {
			t.Fatalf("seed %d: CompileTemplate err %v, CompileQuery err %v", seed, err, werr)
		}
		if err != nil {
			continue
		}
		got := tmpl.Bind("other", params2)
		if got.String() != want.String() {
			t.Fatalf("seed %d: bound template renders differently\nquery: %v\nbound:\n%s\nCompileQuery:\n%s", seed, q2, got, want)
		}
		// The rendering omits the join order; compare the executable
		// parts of every disjunct too.
		for k := range want.disjuncts {
			g, w := got.disjuncts[k], want.disjuncts[k]
			if !reflect.DeepEqual(g.atoms, w.atoms) || !reflect.DeepEqual(g.order, w.order) ||
				!reflect.DeepEqual(g.head, w.head) || g.nvars != w.nvars {
				t.Fatalf("seed %d disjunct %d: bound %+v, CompileQuery %+v", seed, k, g, w)
			}
		}
		for _, par := range []int{1, 4} {
			opts := EvalOptions{Parallelism: par, Seed: seed}
			g, gerr := got.EvalGiven(ex, i, j, opts)
			w, werr := want.EvalGiven(ex, i, j, opts)
			if gerr != nil || werr != nil {
				t.Fatalf("seed %d par %d: eval errors %v / %v", seed, par, gerr, werr)
			}
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d par %d: bound %+v, CompileQuery %+v\nquery: %v\nplan:\n%s", seed, par, g, w, q2, want)
			}
		}
	}
	if lifted == 0 || literal == 0 {
		t.Fatalf("generator exercised %d lifted and %d literal constants; want both", lifted, literal)
	}
	t.Logf("%d cases, %d lifted parameters, %d setting constants kept literal", cases, lifted, literal)
}

// tagSetting is P(x) -> R(x,'a'): the constant 'a' occurs in the
// setting, so a query on it must not share a template with one on any
// other constant.
func tagSetting(t *testing.T) *SettingPlan {
	t.Helper()
	s := &core.Setting{
		Name:   "tag",
		Source: rel.SchemaOf("P", 1),
		Target: rel.SchemaOf("R", 2),
		ST: []dep.TGD{{Label: "st1",
			Body: []dep.Atom{dep.NewAtom("P", dep.Var("x"))},
			Head: []dep.Atom{dep.NewAtom("R", dep.Var("x"), dep.Cst("a"))}}},
	}
	sp, err := CompileSetting(s)
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestShapeKeys(t *testing.T) {
	sp := tagSetting(t)
	r := func(a, b dep.Term) certain.UCQ {
		return certain.UCQ{{Name: "q", Head: []string{"x"}, Body: []dep.Atom{dep.NewAtom("R", a, b), dep.NewAtom("R", dep.Var("x"), dep.Var("y"))}}}
	}
	x, c := dep.Var("x"), dep.Cst
	keyOf := func(q certain.UCQ) string {
		k, _ := sp.ShapeOf(q)
		return k
	}
	for _, tc := range []struct {
		name string
		a, b certain.UCQ
		same bool
	}{
		{"setting constant stays literal", r(x, c("a")), r(x, c("b")), false},
		{"fresh constants share a shape", r(x, c("b")), r(x, c("zz")), true},
		{"equality pattern is kept", r(c("c"), c("c")), r(c("c"), c("d")), false},
		{"repeated constants share a shape", r(c("c"), c("c")), r(c("d"), c("d")), true},
		{"variable names do not matter", r(x, c("b")), certain.UCQ{{Name: "other", Head: []string{"u"},
			Body: []dep.Atom{dep.NewAtom("R", dep.Var("u"), c("b")), dep.NewAtom("R", dep.Var("u"), dep.Var("w"))}}}, true},
	} {
		if got := keyOf(tc.a) == keyOf(tc.b); got != tc.same {
			t.Errorf("%s: %v and %v share a key = %v, want %v", tc.name, tc.a, tc.b, got, tc.same)
		}
	}

	// The literal constant decides the plan: R(x,'a') unfolds through
	// the st-tgd, R(x,'b') cannot.
	i := rel.NewInstance()
	i.Add("P", rel.Const("p1"))
	i.Freeze()
	for _, tc := range []struct {
		tag  string
		want int
	}{{"a", 1}, {"b", 0}} {
		q := certain.UCQ{{Name: "q", Head: []string{"x"}, Body: []dep.Atom{dep.NewAtom("R", x, c(tc.tag))}}}
		tmpl, err := sp.CompileTemplate(q)
		if err != nil {
			t.Fatal(err)
		}
		_, params := sp.ShapeOf(q)
		res, err := tmpl.Bind("q", params).Eval(i, nil, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) != tc.want {
			t.Errorf("R(x,'%s'): %d answers, want %d", tc.tag, len(res.Answers), tc.want)
		}
	}
}

// TestDedupKeyInjective pins the deduplication keys: a constant whose
// text reads like a variable slot ("v0") must not merge with a
// variable. Within a disjunct the atom R('v0') would silently drop out
// of the plan; across disjuncts q(x) :- S(x,'v0') would be taken for
// q(x) :- S(x,x) and dropped.
func TestDedupKeyInjective(t *testing.T) {
	s := &core.Setting{
		Name:   "inert",
		Source: rel.SchemaOf("P", 1),
		Target: rel.SchemaOf("R", 1, "S", 2, "T", 1),
		ST: []dep.TGD{{Label: "st1",
			Body: []dep.Atom{dep.NewAtom("P", dep.Var("x"))},
			Head: []dep.Atom{dep.NewAtom("T", dep.Var("x"))}}},
	}
	x, v0 := dep.Var("x"), dep.Cst("v0")
	j := rel.NewInstance()
	j.Add("R", rel.Const("a"))
	j.Add("S", rel.Const("b"), rel.Const("v0"))
	j.Freeze()
	for _, tc := range []struct {
		q    certain.UCQ
		want int
	}{
		{certain.UCQ{{Name: "q", Head: []string{"x"}, Body: []dep.Atom{dep.NewAtom("R", x), dep.NewAtom("R", v0)}}}, 0},
		{certain.UCQ{
			{Name: "q", Head: []string{"x"}, Body: []dep.Atom{dep.NewAtom("S", x, x)}},
			{Name: "q", Head: []string{"x"}, Body: []dep.Atom{dep.NewAtom("S", x, v0)}},
		}, 1},
	} {
		res, err := mustCompile(t, s, tc.q).Eval(nil, j, EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Answers) != tc.want {
			t.Errorf("%v: answers %v, want %d", tc.q, res.Answers, tc.want)
		}
	}
}

// TestTemplateConcurrentBind shares one template across goroutines
// binding and evaluating different constants (run under -race).
func TestTemplateConcurrentBind(t *testing.T) {
	s := workload.LAVSetting()
	i, j := workload.LAVInstance(40, true, rand.New(rand.NewSource(3)))
	sp, err := CompileSetting(s)
	if err != nil {
		t.Fatal(err)
	}
	query := func(person string) certain.UCQ {
		return certain.UCQ{{Name: "q", Head: []string{"g"}, Body: []dep.Atom{
			dep.NewAtom("Rec", dep.Cst(person), dep.Var("g"), dep.Var("u"))}}}
	}
	tmpl, err := sp.CompileTemplate(query("p0"))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < 40; k += 4 {
				q := query(fmt.Sprintf("p%d", k))
				_, params := sp.ShapeOf(q)
				got, err := tmpl.Bind("q", params).Eval(i, j, EvalOptions{Parallelism: 2})
				if err != nil {
					t.Error(err)
					return
				}
				plan, err := sp.CompileQuery(q)
				if err != nil {
					t.Error(err)
					return
				}
				want, err := plan.Eval(i, j, EvalOptions{Parallelism: 1})
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("person p%d: bound %+v, compiled %+v (err %v)", k, got, want, err)
				}
			}
		}(w)
	}
	wg.Wait()
}
