// Package qplan compiles certain-answer computation for C_tract
// settings into direct evaluation plans over the source and target
// instances, skipping chase materialization entirely.
//
// The idea follows the query-rewriting view of "Laconic schema
// mappings": instead of chasing I into a canonical target J_can and
// enumerating image solutions per request, the mapping itself is
// compiled once. Every target atom of a UCQ is unfolded through the
// source-to-target tgds (LAV-style view unfolding) or matched against
// the stored target instance J directly, producing a union of
// source-side conjunctive plans whose evaluation over the indexed
// instances returns exactly the chase-backed certain answers.
//
// # The compilable fragment
//
// Compilation is sound for settings where the canonical target's
// labeled nulls are inert: they can never be forced to constants by the
// target-to-source dependencies. Concretely a setting compiles when
//
//  1. it is in C_tract (Definition 9) — in particular Σt = ∅ and there
//     are no disjunctive target-to-source dependencies, and
//  2. no target-to-source tgd mentions a marked variable (Definition 8)
//     in its head: variables that can bind labeled nulls of J_can never
//     flow into a Σts obligation over the source.
//
// Under (1)+(2), and for null-free instances I and J, whether a Σts
// trigger is satisfied in I depends only on constant bindings, so the
// identity assignment (keep every null fresh) is a solution whenever
// any assignment is. Solution existence therefore compiles to violation
// probes — unfoldings of each Σts body whose head-variable
// rows are checked against I — and certain answers of a UCQ q reduce to
// evaluating the unfolded q over (I, J): for Boolean queries any match
// settles certainty, for open queries exactly the matches whose head
// values are constants survive, so disjuncts that bind a head variable
// to an existential position of an st-tgd are dropped at compile time
// (DESIGN.md §15 gives the full argument).
//
// Settings or instances outside the fragment fall back to the
// enumeration path of package certain with a typed reason, mirroring
// the chase.Fallback* taxonomy.
package qplan

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/certain"
	"repro/internal/core"
	"repro/internal/dep"
	"repro/internal/par"
	"repro/internal/rel"
)

// Fallback reasons explain why the compiled path declined and the
// chase-backed enumeration must run instead. They are stable strings,
// suitable as metric labels.
const (
	// FallbackNone means the compiled path applies.
	FallbackNone = ""
	// FallbackNotCtract: the setting is outside C_tract (Definition 9).
	FallbackNotCtract = "not-ctract"
	// FallbackTargetDeps: the setting has target constraints (Σt ≠ ∅).
	FallbackTargetDeps = "target-deps"
	// FallbackDisjunctive: the setting has disjunctive Σts dependencies.
	FallbackDisjunctive = "disjunctive-ts"
	// FallbackMarkedHead: some Σts tgd mentions a marked variable in its
	// head, so labeled nulls of the canonical target could be forced to
	// constants — the unfolding would be unsound.
	FallbackMarkedHead = "ts-marked-head"
	// FallbackPlanSize: the unfolding would exceed the disjunct budget.
	FallbackPlanSize = "plan-too-large"
	// FallbackNulls: an instance contains labeled nulls; the compiled
	// equivalence is proved for null-free inputs only.
	FallbackNulls = "instance-nulls"
)

// FallbackReasons lists every non-empty fallback reason, for metric
// label enumeration.
var FallbackReasons = []string{
	FallbackNotCtract,
	FallbackTargetDeps,
	FallbackDisjunctive,
	FallbackMarkedHead,
	FallbackPlanSize,
	FallbackNulls,
}

// maxDisjuncts bounds the size of a compiled plan: the unfolding of a
// single conjunctive query (or Σts body) may not exceed this many
// origin assignments.
const maxDisjuncts = 4096

// FallbackError reports that a setting, query, or instance pair is
// outside the compilable fragment. It is advisory, not fatal: callers
// fall back to the enumeration path and may surface Reason as a metric
// label.
type FallbackError struct {
	// Reason is one of the Fallback* constants (never FallbackNone).
	Reason string
	// Detail names the offending dependency or instance.
	Detail string
}

func (e *FallbackError) Error() string {
	if e.Detail == "" {
		return fmt.Sprintf("qplan: not compilable: %s", e.Reason)
	}
	return fmt.Sprintf("qplan: not compilable: %s (%s)", e.Reason, e.Detail)
}

// ReasonOf extracts the fallback reason from an error returned by the
// compile or eval entry points; it returns FallbackNone for nil and for
// errors that are not fallbacks (which callers should propagate).
func ReasonOf(err error) string {
	var fe *FallbackError
	if errors.As(err, &fe) {
		return fe.Reason
	}
	return FallbackNone
}

// ClassifySetting reports why the setting is outside the compilable
// fragment, or FallbackNone when CompileSetting will succeed.
func ClassifySetting(s *core.Setting) string {
	if err := classifySetting(s); err != nil {
		return ReasonOf(err)
	}
	return FallbackNone
}

func classifySetting(s *core.Setting) error {
	if len(s.T) > 0 {
		return &FallbackError{Reason: FallbackTargetDeps, Detail: s.Name}
	}
	if len(s.TSDisj) > 0 {
		return &FallbackError{Reason: FallbackDisjunctive, Detail: s.Name}
	}
	if !dep.ClassifyCtract(s.ST, s.TS, nil).InCtract {
		return &FallbackError{Reason: FallbackNotCtract, Detail: s.Name}
	}
	markedPos := dep.MarkedPositions(s.ST)
	for _, d := range s.TS {
		headVars := make(map[string]bool)
		for _, a := range d.Head {
			for _, v := range a.Vars() {
				headVars[v] = true
			}
		}
		for _, a := range d.Body {
			for i, t := range a.Args {
				if !t.IsConst && headVars[t.Name] && markedPos[dep.Position{Rel: a.Rel, Idx: i}] {
					return &FallbackError{
						Reason: FallbackMarkedHead,
						Detail: fmt.Sprintf("%s: variable %s", d.Label, t.Name),
					}
				}
			}
		}
	}
	return nil
}

// origin is one way a target atom can hold in the canonical target:
// matched against the stored target instance J, or produced by the
// atom-th head conjunct of the tgd-th source-to-target tgd.
type origin struct {
	tgd  int
	atom int
}

// probe is the compiled violation check of one Σts tgd: the unfolded
// body enumerates rows of head-variable bindings; each row must extend
// to a homomorphism of the head into I.
//
// The head is compiled into slot-addressed source atoms: slot k below
// len(headVars) holds value k of the row, later slots the head's
// existential variables. A ground head (no existential slots) checks
// each atom with one Relation.Contains; otherwise the head is matched
// through the position indexes of I with the head variables pre-bound.
type probe struct {
	label     string
	headVars  []string
	headAtoms []dep.Atom
	head      disjunct
	ground    bool
	disjuncts []disjunct
}

// SettingPlan is the per-setting half of a compiled plan: the origin
// table for unfolding and the Σts violation probes deciding solution
// existence. It is immutable after CompileSetting and safe for
// concurrent use.
type SettingPlan struct {
	s *core.Setting
	// origins maps each target relation to the st-tgd head conjuncts
	// producing it.
	origins map[string][]origin
	// universal[d] is the universal-variable set of s.ST[d].
	universal []map[string]bool
	probes    []probe
	// constants holds the text of every constant in Σst and Σts (the
	// fragment has no other dependencies): query constants outside it
	// are lifted into shape parameters.
	constants map[string]bool
}

// CompileSetting compiles the setting's origin table and Σts probes,
// or returns a *FallbackError when the setting is outside the fragment.
func CompileSetting(s *core.Setting) (*SettingPlan, error) {
	if err := classifySetting(s); err != nil {
		return nil, err
	}
	sp := &SettingPlan{
		s:         s,
		origins:   make(map[string][]origin),
		universal: make([]map[string]bool, len(s.ST)),
		constants: make(map[string]bool),
	}
	for _, deps := range [][]dep.TGD{s.ST, s.TS} {
		for _, d := range deps {
			for _, atoms := range [][]dep.Atom{d.Body, d.Head} {
				for _, a := range atoms {
					for _, t := range a.Args {
						if t.IsConst {
							sp.constants[t.Name] = true
						}
					}
				}
			}
		}
	}
	for di, d := range s.ST {
		uni := make(map[string]bool)
		for _, v := range d.UniversalVars() {
			uni[v] = true
		}
		sp.universal[di] = uni
		for ai, a := range d.Head {
			sp.origins[a.Rel] = append(sp.origins[a.Rel], origin{tgd: di, atom: ai})
		}
	}
	for _, d := range s.TS {
		headVars := headUniversalVars(d)
		headTerms := make([]dep.Term, len(headVars))
		for i, v := range headVars {
			headTerms[i] = dep.Var(v)
		}
		ds, _, err := sp.unfold(headTerms, d.Body, nil, false)
		if err != nil {
			return nil, err
		}
		head := compileHead(d.Head, headVars)
		sp.probes = append(sp.probes, probe{
			label:     d.Label,
			headVars:  headVars,
			headAtoms: d.Head,
			head:      head,
			ground:    head.nvars == len(headVars),
			disjuncts: ds,
		})
	}
	return sp, nil
}

// compileHead compiles a Σts head into source atoms over slots: the
// head variables take slots 0..len(headVars)-1 in order, existential
// variables the following slots in first-occurrence order.
func compileHead(atoms []dep.Atom, headVars []string) disjunct {
	slot := make(map[string]int, len(headVars))
	for k, v := range headVars {
		slot[v] = k
	}
	hd := disjunct{nvars: len(headVars)}
	for _, a := range atoms {
		args := make([]cterm, len(a.Args))
		for p, t := range a.Args {
			if t.IsConst {
				args[p] = cterm{constant: true, val: rel.Const(t.Name)}
				continue
			}
			s, ok := slot[t.Name]
			if !ok {
				s = hd.nvars
				hd.nvars++
				slot[t.Name] = s
			}
			args[p] = cterm{v: s}
		}
		hd.atoms = append(hd.atoms, catom{source: true, rel: a.Rel, args: args})
	}
	hd.order = joinOrder(hd.atoms, len(headVars))
	return hd
}

// headCheck decides, row by row, whether a probe's head holds in I. It
// is per-call state: one reused tuple for ground heads, one reused
// runner for heads with existential variables.
type headCheck struct {
	pb   *probe
	rels []*rel.Relation // per head atom; nil when I lacks the relation
	buf  rel.Tuple
	r    *runner
}

func newHeadCheck(pb *probe, i *rel.Instance, ctx context.Context) *headCheck {
	h := &headCheck{pb: pb}
	if !pb.ground {
		h.r = newRunner(&pb.head, i, nil, ctx, func(rel.Tuple) bool { return false })
		for k := range pb.headVars {
			h.r.set[k] = true
		}
		return h
	}
	width := 0
	h.rels = make([]*rel.Relation, len(pb.head.atoms))
	for k := range pb.head.atoms {
		h.rels[k] = i.Relation(pb.head.atoms[k].rel)
		width = max(width, len(pb.head.atoms[k].args))
	}
	h.buf = make(rel.Tuple, width)
	return h
}

// holds reports whether the head, with its variables bound to row,
// has a match in I. A match cut short by cancellation reports false;
// the caller checks the context before trusting a miss.
func (h *headCheck) holds(row rel.Tuple) bool {
	if h.r != nil {
		copy(h.r.vals, row)
		h.r.halted = false
		h.r.run(0)
		return h.r.halted
	}
	for k := range h.pb.head.atoms {
		if h.rels[k] == nil {
			return false
		}
		a := &h.pb.head.atoms[k]
		t := h.buf[:len(a.args)]
		for p, c := range a.args {
			if c.constant {
				t[p] = c.val
			} else {
				t[p] = row[c.v]
			}
		}
		if !h.rels[k].Contains(t) {
			return false
		}
	}
	return true
}

// headUniversalVars returns the body variables of d that occur in its
// head, in first-occurrence order of the head.
func headUniversalVars(d dep.TGD) []string {
	body := make(map[string]bool)
	for _, a := range d.Body {
		for _, v := range a.Vars() {
			body[v] = true
		}
	}
	var out []string
	seen := make(map[string]bool)
	for _, a := range d.Head {
		for _, v := range a.Vars() {
			if body[v] && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// Setting returns the compiled setting.
func (sp *SettingPlan) Setting() *core.Setting { return sp.s }

// EvalOptions configures plan evaluation.
type EvalOptions struct {
	// Parallelism bounds the workers of the leaf scans: 0 means
	// GOMAXPROCS, 1 forces the serial path. Results are byte-identical
	// at every setting.
	Parallelism int
	// Seed perturbs parallel work distribution; never results.
	Seed int64
	// Ctx, when non-nil, cancels the evaluation with an error wrapping
	// par.ErrCanceled.
	Ctx context.Context
}

func canceled(ctx context.Context, what string) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("qplan: %s: %w: %w", what, par.ErrCanceled, err)
	}
	return nil
}

var emptyInstance = func() *rel.Instance {
	e := rel.NewInstance()
	e.Freeze()
	return e
}()

func orEmpty(inst *rel.Instance) *rel.Instance {
	if inst == nil {
		return emptyInstance
	}
	return inst
}

// checkInstances gates evaluation on null-free inputs (the fragment's
// equivalence is proved for null-free I and J only).
func (sp *SettingPlan) checkInstances(i, j *rel.Instance) error {
	if orEmpty(i).HasNulls() {
		return &FallbackError{Reason: FallbackNulls, Detail: "source instance"}
	}
	if orEmpty(j).HasNulls() {
		return &FallbackError{Reason: FallbackNulls, Detail: "target instance"}
	}
	return nil
}

// SolutionExists decides SOL(P) for (i, j) by running the compiled Σts
// probes: it returns false exactly when some head-variable row of some
// unfolded Σts body has no extension into i. It returns a
// *FallbackError when an instance contains labeled nulls.
func (sp *SettingPlan) SolutionExists(i, j *rel.Instance, opts EvalOptions) (bool, error) {
	if err := sp.checkInstances(i, j); err != nil {
		return false, err
	}
	if err := canceled(opts.Ctx, "solution probes"); err != nil {
		return false, err
	}
	i, j = orEmpty(i), orEmpty(j)
	for pi := range sp.probes {
		pb := &sp.probes[pi]
		hc := newHeadCheck(pb, i, opts.Ctx)
		for di := range pb.disjuncts {
			violated := false
			err := forEachRow(&pb.disjuncts[di], i, j, opts.Ctx, func(row rel.Tuple) bool {
				violated = !hc.holds(row)
				return !violated
			})
			if err != nil {
				return false, err
			}
			if violated {
				// A cut-short head match may report a spurious miss;
				// never turn cancellation into a verdict.
				if cerr := canceled(opts.Ctx, "solution probe"); cerr != nil {
					return false, cerr
				}
				return false, nil
			}
		}
	}
	return true, nil
}

// Plan is a compiled certain-answer plan for one UCQ over one setting.
// It is immutable after compilation and safe for concurrent use.
type Plan struct {
	sp        *SettingPlan
	name      string
	boolean   bool
	headArity int
	disjuncts []disjunct
	// dropped counts the unfolded disjuncts discarded because they bind
	// a head variable to an existential (null-producing) position.
	dropped int
}

// CompileQuery unfolds the UCQ into a plan over the setting. The query
// must validate against the setting's target schema.
func (sp *SettingPlan) CompileQuery(q certain.UCQ) (*Plan, error) {
	return sp.compile(q, nil)
}

// compile unfolds the UCQ with the constants lifted by params compiled
// as parameter terms (see unfold).
func (sp *SettingPlan) compile(q certain.UCQ, params map[string]int) (*Plan, error) {
	if err := q.Validate(sp.s.Target); err != nil {
		return nil, err
	}
	p := &Plan{
		sp:        sp,
		name:      q[0].Name,
		boolean:   q[0].IsBoolean(),
		headArity: len(q[0].Head),
	}
	seen := make(map[string]bool)
	for _, cq := range q {
		headTerms := make([]dep.Term, len(cq.Head))
		for i, v := range cq.Head {
			headTerms[i] = dep.Var(v)
		}
		ds, dropped, err := sp.unfold(headTerms, cq.Body, params, !p.boolean)
		if err != nil {
			return nil, err
		}
		p.dropped += dropped
		for _, d := range ds {
			if seen[d.key] {
				continue
			}
			seen[d.key] = true
			p.disjuncts = append(p.disjuncts, d)
		}
	}
	return p, nil
}

// Compile is the one-shot form: CompileSetting followed by
// CompileQuery.
func Compile(s *core.Setting, q certain.UCQ) (*Plan, error) {
	sp, err := CompileSetting(s)
	if err != nil {
		return nil, err
	}
	return sp.CompileQuery(q)
}

// IsBoolean reports whether the compiled query has an empty head.
func (p *Plan) IsBoolean() bool { return p.boolean }

// Name returns the query name the plan was compiled from.
func (p *Plan) Name() string { return p.name }

// SettingPlan returns the per-setting half the plan was compiled
// against.
func (p *Plan) SettingPlan() *SettingPlan { return p.sp }

// Eval computes the certain-answer result for (i, j): it runs the
// solution probes, then evaluates the compiled query. The result is
// byte-identical to the chase-backed certain.Boolean / certain.Answers
// (SolutionsExamined excepted: the compiled path examines none).
func (p *Plan) Eval(i, j *rel.Instance, opts EvalOptions) (certain.Result, error) {
	ok, err := p.sp.SolutionExists(i, j, opts)
	if err != nil {
		return certain.Result{}, err
	}
	return p.EvalGiven(ok, i, j, opts)
}

// EvalGiven is Eval with the solution-existence verdict supplied by the
// caller, so a batch of queries over one instance pair runs the probes
// once. The caller must have obtained solutionExists from
// SolutionExists on the same (i, j) — which also vetted the instances
// as null-free.
func (p *Plan) EvalGiven(solutionExists bool, i, j *rel.Instance, opts EvalOptions) (certain.Result, error) {
	if !solutionExists {
		// No solution: a Boolean query is vacuously certain; package
		// certain leaves the Certain field untouched (false) for open
		// queries, and the compiled result mirrors it bit for bit.
		return certain.Result{SolutionExists: false, Certain: p.boolean}, nil
	}
	if err := canceled(opts.Ctx, "plan eval"); err != nil {
		return certain.Result{}, err
	}
	i, j = orEmpty(i), orEmpty(j)
	res := certain.Result{SolutionExists: true, Certain: p.boolean}
	if p.boolean {
		found, err := p.holds(i, j, opts)
		if err != nil {
			return res, err
		}
		res.Certain = found
		return res, nil
	}
	answers, err := p.answers(i, j, opts)
	if err != nil {
		return res, err
	}
	res.Answers = answers
	return res, nil
}

// holds reports whether any disjunct matches (Boolean certainty).
func (p *Plan) holds(i, j *rel.Instance, opts EvalOptions) (bool, error) {
	for di := range p.disjuncts {
		found, err := existsMatch(&p.disjuncts[di], i, j, opts)
		if err != nil {
			return false, err
		}
		if found {
			return true, nil
		}
	}
	return false, nil
}

// answers evaluates every disjunct and returns the deduplicated head
// rows, sorted as in package certain. All rows are ground by
// construction (null-producing disjuncts were dropped at compile time).
func (p *Plan) answers(i, j *rel.Instance, opts EvalOptions) ([]rel.Tuple, error) {
	seen := make(map[rel.TupleKey]bool)
	var out []rel.Tuple
	for di := range p.disjuncts {
		rows, err := collectRows(&p.disjuncts[di], i, j, opts)
		if err != nil {
			return nil, err
		}
		for _, t := range rows {
			k := rel.KeyOf(t)
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, t)
		}
	}
	sortTuples(out)
	return out, nil
}

// sortTuples orders tuples exactly as package certain does, so compiled
// answers are byte-identical to the enumeration path's.
func sortTuples(ts []rel.Tuple) {
	keys := make([]string, len(ts))
	for i, t := range ts {
		keys[i] = t.String()
	}
	sort.Sort(&tupleSorter{ts: ts, keys: keys})
}

type tupleSorter struct {
	ts   []rel.Tuple
	keys []string
}

func (s *tupleSorter) Len() int           { return len(s.ts) }
func (s *tupleSorter) Less(a, b int) bool { return s.keys[a] < s.keys[b] }
func (s *tupleSorter) Swap(a, b int) {
	s.ts[a], s.ts[b] = s.ts[b], s.ts[a]
	s.keys[a], s.keys[b] = s.keys[b], s.keys[a]
}

// String renders the plan for offline inspection (pdx compile): the
// normalized source-side disjuncts, the dropped-disjunct count, and the
// solution probes shared by every plan of the setting.
func (p *Plan) String() string {
	var b strings.Builder
	kind := "open"
	if p.boolean {
		kind = "boolean"
	}
	fmt.Fprintf(&b, "plan %s: %s, head arity %d, %d disjunct(s)", p.name, kind, p.headArity, len(p.disjuncts))
	if p.dropped > 0 {
		fmt.Fprintf(&b, ", %d null-head disjunct(s) dropped", p.dropped)
	}
	b.WriteString("\n")
	for i := range p.disjuncts {
		fmt.Fprintf(&b, "  %s%s\n", p.name, p.disjuncts[i].render())
	}
	for pi := range p.sp.probes {
		pb := &p.sp.probes[pi]
		for di := range pb.disjuncts {
			fmt.Fprintf(&b, "  probe %s: check", pb.label)
			for ai, a := range pb.headAtoms {
				if ai > 0 {
					b.WriteString(",")
				}
				fmt.Fprintf(&b, " %s", a)
			}
			fmt.Fprintf(&b, " over%s\n", pb.disjuncts[di].renderWith(pb.headVars))
		}
	}
	return b.String()
}
