// Unfolding: rewriting a conjunction of target atoms into a union of
// conjunctions over the source instance I and the stored target
// instance J.
//
// Every target atom either holds in J directly or is the instance of
// one head conjunct of one st-tgd trigger. The oblivious st-chase fires
// one trigger per (tgd, universal binding), so the labeled null filling
// an existential position is a Skolem term f_{d,e}(universal vars): two
// occurrences denote the same null exactly when they come from the same
// tgd, the same existential variable, and equal universal bindings.
// The unifier below encodes that discipline — each atom gets its own
// renamed trigger copy, and joining two existential positions merges
// the two copies (forcing equal universal bindings) when they agree on
// (tgd, variable) and prunes the disjunct otherwise. A null can never
// equal a constant or a value drawn from the null-free I or J, so such
// unifications prune too.
package qplan

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/dep"
	"repro/internal/rel"
)

// cterm is a compiled term: a constant value, a variable slot v, or —
// in a Template only — parameter v of the query shape, which Bind
// replaces by a constant before any evaluation. cterms are comparable:
// two constant-like terms (constants and parameters) are equal exactly
// when they denote the same value of every binding.
type cterm struct {
	constant bool
	param    bool
	val      rel.Value
	v        int
}

// isVar reports whether the term is a variable slot.
func (t cterm) isVar() bool { return !t.constant && !t.param }

// constTerm compiles a constant of the unfolded text: parameter k when
// params lifts the text into slot k, the literal value otherwise.
// Lifted constants occur in no dependency of the setting, so applying
// params to setting constants leaves them literal.
func constTerm(text string, params map[string]int) cterm {
	if k, ok := params[text]; ok {
		return cterm{param: true, v: k}
	}
	return cterm{constant: true, val: rel.Const(text)}
}

// catom is a compiled atom, evaluated against the source instance
// (source=true) or the stored target instance.
type catom struct {
	source bool
	rel    string
	args   []cterm
}

// disjunct is one conjunct of the compiled union: atoms in emission
// order, a greedy execution order over them, and the head row template.
type disjunct struct {
	atoms []catom
	order []int
	head  []cterm
	nvars int
	// key is the canonical, injective rendering used for deduplication
	// at compile time.
	key string
	// params marks a template disjunct holding a parameter term.
	params bool
}

// unfold rewrites (head, body) — a query disjunct or a Σts body with
// its head variables — into compiled disjuncts. Constants lifted by
// params become parameter terms: during unification they behave as
// constants distinct from each other and from every setting constant,
// which is what their values are in every query of the shape (nil
// params compiles every constant literally). dropNullHeads drops
// disjuncts binding a head variable to an existential position (open
// queries: only ground rows can be certain); when false such a binding
// is an internal error, since the fragment gate proved Σts heads
// null-free. The second result counts the dropped disjuncts.
func (sp *SettingPlan) unfold(head []dep.Term, body []dep.Atom, params map[string]int, dropNullHeads bool) ([]disjunct, int, error) {
	// One choice list per atom: the stored target instance, then every
	// st head conjunct over the same relation.
	choices := make([][]origin, len(body))
	total := 1
	for k, a := range body {
		opts := make([]origin, 0, 1+len(sp.origins[a.Rel]))
		opts = append(opts, origin{tgd: -1}) // match against J
		opts = append(opts, sp.origins[a.Rel]...)
		choices[k] = opts
		total *= len(opts)
		if total > maxDisjuncts {
			return nil, 0, &FallbackError{
				Reason: FallbackPlanSize,
				Detail: fmt.Sprintf("more than %d origin assignments", maxDisjuncts),
			}
		}
	}
	var out []disjunct
	dropped := 0
	asg := make([]int, len(body))
	for {
		d, drop, err := sp.buildDisjunct(head, body, params, choices, asg, dropNullHeads)
		if err != nil {
			return nil, 0, err
		}
		if drop {
			dropped++
		} else if d != nil {
			out = append(out, *d)
		}
		// Next assignment, in mixed-radix order.
		k := len(asg) - 1
		for ; k >= 0; k-- {
			asg[k]++
			if asg[k] < len(choices[k]) {
				break
			}
			asg[k] = 0
		}
		if k < 0 {
			break
		}
	}
	return out, dropped, nil
}

// unifier is a union-find over query variables and trigger-copy
// variables, with per-class attributes: a constant (or parameter)
// binding, or an
// existential marker (copy, variable) identifying a Skolem null.
type unifier struct {
	sp     *SettingPlan
	parent []int
	size   []int
	attrs  []attr

	// copies created for this disjunct: tgd index and the nodes of the
	// tgd's universal variables.
	copyTGD    []int
	copyParent []int
	copyVars   []map[string]int

	queue  [][2]int
	failed bool
}

type attr struct {
	hasConst bool
	constant cterm // a constant or parameter term
	hasEx    bool
	exCopy   int
	exVar    string
}

func newUnifier(sp *SettingPlan) *unifier { return &unifier{sp: sp} }

func (u *unifier) newNode() int {
	u.parent = append(u.parent, len(u.parent))
	u.size = append(u.size, 1)
	u.attrs = append(u.attrs, attr{})
	return len(u.parent) - 1
}

func (u *unifier) find(n int) int {
	for u.parent[n] != n {
		u.parent[n] = u.parent[u.parent[n]]
		n = u.parent[n]
	}
	return n
}

// newCopy allocates a fresh trigger copy of st-tgd di, with its own
// nodes for the tgd's universal variables.
func (u *unifier) newCopy(di int) int {
	vars := make(map[string]int)
	for _, v := range u.sp.s.ST[di].UniversalVars() {
		vars[v] = u.newNode()
	}
	u.copyTGD = append(u.copyTGD, di)
	u.copyParent = append(u.copyParent, len(u.copyParent))
	u.copyVars = append(u.copyVars, vars)
	return len(u.copyTGD) - 1
}

// findCopy resolves a copy to its representative; merged copies keep
// the earliest-created one as root, so emission order is stable.
func (u *unifier) findCopy(c int) int {
	for u.copyParent[c] != c {
		u.copyParent[c] = u.copyParent[u.copyParent[c]]
		c = u.copyParent[c]
	}
	return c
}

// union enqueues a node unification and drains the worklist.
func (u *unifier) union(a, b int) {
	u.queue = append(u.queue, [2]int{a, b})
	u.drain()
}

func (u *unifier) drain() {
	for len(u.queue) > 0 && !u.failed {
		pair := u.queue[len(u.queue)-1]
		u.queue = u.queue[:len(u.queue)-1]
		ra, rb := u.find(pair[0]), u.find(pair[1])
		if ra == rb {
			continue
		}
		if u.size[ra] < u.size[rb] {
			ra, rb = rb, ra
		}
		merged, ok := u.mergeAttrs(u.attrs[ra], u.attrs[rb])
		if !ok {
			u.failed = true
			return
		}
		u.parent[rb] = ra
		u.size[ra] += u.size[rb]
		u.attrs[ra] = merged
	}
}

// mergeAttrs combines two class attributes, enqueuing copy merges when
// two Skolem markers coincide. It reports false on contradiction: two
// distinct constants, or a constant meeting a Skolem null.
func (u *unifier) mergeAttrs(a, b attr) (attr, bool) {
	if a.hasConst && b.hasConst && a.constant != b.constant {
		return attr{}, false
	}
	if (a.hasConst && b.hasEx) || (a.hasEx && b.hasConst) {
		return attr{}, false
	}
	out := a
	if b.hasConst {
		out.hasConst, out.constant = true, b.constant
	}
	if a.hasEx && b.hasEx {
		ca, cb := u.findCopy(a.exCopy), u.findCopy(b.exCopy)
		if u.copyTGD[ca] != u.copyTGD[cb] || a.exVar != b.exVar {
			// Nulls from different tgds or different existential
			// variables are always distinct.
			return attr{}, false
		}
		u.mergeCopies(ca, cb)
	} else if b.hasEx {
		out.hasEx, out.exCopy, out.exVar = true, b.exCopy, b.exVar
	}
	return out, true
}

// mergeCopies identifies two trigger copies of the same tgd: their
// universal bindings must agree, so the corresponding variable nodes
// are enqueued for unification.
func (u *unifier) mergeCopies(ca, cb int) {
	if ca == cb {
		return
	}
	if ca > cb {
		ca, cb = cb, ca
	}
	u.copyParent[cb] = ca
	for _, v := range u.sp.s.ST[u.copyTGD[ca]].UniversalVars() {
		u.queue = append(u.queue, [2]int{u.copyVars[ca][v], u.copyVars[cb][v]})
	}
}

func (u *unifier) bindConst(n int, c cterm) {
	r := u.find(n)
	merged, ok := u.mergeAttrs(u.attrs[r], attr{hasConst: true, constant: c})
	if !ok {
		u.failed = true
		return
	}
	u.attrs[r] = merged
	u.drain()
}

func (u *unifier) bindExistential(n, copyID int, evar string) {
	r := u.find(n)
	merged, ok := u.mergeAttrs(u.attrs[r], attr{hasEx: true, exCopy: copyID, exVar: evar})
	if !ok {
		u.failed = true
		return
	}
	u.attrs[r] = merged
	u.drain()
}

// buildDisjunct compiles one origin assignment. It returns (nil, true,
// nil) when the disjunct is dropped for binding a head variable to a
// null, and (nil, false, nil) when unification pruned it.
func (sp *SettingPlan) buildDisjunct(head []dep.Term, body []dep.Atom, params map[string]int, choices [][]origin, asg []int, dropNullHeads bool) (*disjunct, bool, error) {
	u := newUnifier(sp)
	qvar := make(map[string]int)
	node := func(name string) int {
		n, ok := qvar[name]
		if !ok {
			n = u.newNode()
			qvar[name] = n
		}
		return n
	}
	// Per body atom: the trigger copy serving it (-1 when matched
	// against J).
	atomCopy := make([]int, len(body))
	for k, a := range body {
		o := choices[k][asg[k]]
		if o.tgd < 0 {
			atomCopy[k] = -1
			// Still materialize nodes for the atom's variables, so
			// head variables resolve even for J-only disjuncts.
			for _, t := range a.Args {
				if !t.IsConst {
					node(t.Name)
				}
			}
			continue
		}
		c := u.newCopy(o.tgd)
		atomCopy[k] = c
		headAtom := sp.s.ST[o.tgd].Head[o.atom]
		for p, ht := range headAtom.Args {
			qt := a.Args[p]
			switch {
			case ht.IsConst && qt.IsConst:
				if constTerm(ht.Name, params) != constTerm(qt.Name, params) {
					u.failed = true
				}
			case ht.IsConst:
				u.bindConst(node(qt.Name), constTerm(ht.Name, params))
			case sp.universal[o.tgd][ht.Name]:
				hn := u.copyVars[c][ht.Name]
				if qt.IsConst {
					u.bindConst(hn, constTerm(qt.Name, params))
				} else {
					u.union(node(qt.Name), hn)
				}
			default: // existential position: a Skolem null
				if qt.IsConst {
					u.failed = true // a null never equals a constant
				} else {
					u.bindExistential(node(qt.Name), c, ht.Name)
				}
			}
			if u.failed {
				return nil, false, nil
			}
		}
	}

	// Emission: trigger-copy bodies (once per merged copy) and J atoms,
	// in body-atom order. Variable slots are assigned per class root in
	// first-appearance order.
	d := &disjunct{}
	slots := make(map[int]int)
	pruned := false
	termOf := func(t dep.Term, copyID int) cterm {
		if t.IsConst {
			return constTerm(t.Name, params)
		}
		var n int
		if copyID >= 0 {
			n = u.copyVars[copyID][t.Name]
		} else {
			n = node(t.Name)
		}
		r := u.find(n)
		at := u.attrs[r]
		if at.hasConst {
			return at.constant
		}
		if at.hasEx {
			// A Skolem null flowed into an instance-matched position;
			// the null-free instances can never supply it.
			pruned = true
			return cterm{}
		}
		s, ok := slots[r]
		if !ok {
			s = d.nvars
			d.nvars++
			slots[r] = s
		}
		return cterm{v: s}
	}
	seenAtom := make(map[string]bool)
	emit := func(source bool, relName string, args []dep.Term, copyID int) {
		ct := make([]cterm, len(args))
		for p, t := range args {
			ct[p] = termOf(t, copyID)
			if pruned {
				return
			}
		}
		a := catom{source: source, rel: relName, args: ct}
		k := a.key()
		if seenAtom[k] {
			return
		}
		seenAtom[k] = true
		d.atoms = append(d.atoms, a)
	}
	emittedCopy := make(map[int]bool)
	for k, a := range body {
		if atomCopy[k] < 0 {
			emit(false, a.Rel, a.Args, -1)
		} else {
			c := u.findCopy(atomCopy[k])
			if !emittedCopy[c] {
				emittedCopy[c] = true
				for _, ba := range sp.s.ST[u.copyTGD[c]].Body {
					emit(true, ba.Rel, ba.Args, c)
					if pruned {
						return nil, false, nil
					}
				}
			}
		}
		if pruned {
			return nil, false, nil
		}
	}

	// Head template.
	d.head = make([]cterm, len(head))
	for hi, t := range head {
		if t.IsConst {
			d.head[hi] = constTerm(t.Name, params)
			continue
		}
		r := u.find(node(t.Name))
		at := u.attrs[r]
		switch {
		case at.hasConst:
			d.head[hi] = at.constant
		case at.hasEx:
			if !dropNullHeads {
				return nil, false, fmt.Errorf("qplan: internal: probe head variable %s bound to a null", t.Name)
			}
			return nil, true, nil
		default:
			s, ok := slots[r]
			if !ok {
				// The head variable's class never reached an emitted
				// atom; it cannot be produced (defensive — Validate
				// guarantees head variables occur in the body).
				return nil, false, nil
			}
			d.head[hi] = cterm{v: s}
		}
	}

	d.order = joinOrder(d.atoms, 0)
	d.key = d.write(nil, true)
	return d, false, nil
}

// joinOrder greedily orders atoms for execution: repeatedly pick the
// atom with the most bound argument positions (constants, parameters,
// the slots below prebound, or variables bound by earlier atoms),
// breaking ties by emission order.
func joinOrder(atoms []catom, prebound int) []int {
	n := len(atoms)
	used := make([]bool, n)
	bound := make(map[int]bool)
	for v := 0; v < prebound; v++ {
		bound[v] = true
	}
	order := make([]int, 0, n)
	for len(order) < n {
		best, bestScore := -1, -1
		for k := range atoms {
			if used[k] {
				continue
			}
			score := 0
			for _, t := range atoms[k].args {
				if !t.isVar() || bound[t.v] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = k, score
			}
		}
		used[best] = true
		order = append(order, best)
		for _, t := range atoms[best].args {
			if t.isVar() {
				bound[t.v] = true
			}
		}
	}
	return order
}

// render produces the canonical text of the disjunct: head then atoms,
// with variables renumbered by first occurrence.
func (d *disjunct) render() string {
	return d.write(nil, false)
}

// renderWith is render with head-variable names substituted for the
// head slots (used for probe display).
func (d *disjunct) renderWith(headNames []string) string {
	return d.write(headNames, false)
}

// write renders the disjunct. With exact set it produces the
// deduplication key: constants and relation names are quoted, so the
// key is injective — a constant "v0" never reads as variable v0 — and
// structurally equal disjuncts from different origin assignments, and
// only those, deduplicate. Parameters render as $k.
func (d *disjunct) write(headNames []string, exact bool) string {
	canon := make(map[int]int)
	var b strings.Builder
	b.Grow(16 + 24*len(d.atoms))
	writeTerm := func(t cterm) {
		switch {
		case t.constant:
			writeName(&b, t.val.String(), exact)
			return
		case t.param:
			b.WriteString("$")
			b.WriteString(strconv.Itoa(t.v))
			return
		}
		c, ok := canon[t.v]
		if !ok {
			c = len(canon)
			canon[t.v] = c
		}
		b.WriteString("v")
		b.WriteString(strconv.Itoa(c))
	}
	if len(d.head) > 0 {
		b.WriteString("(")
		for i, t := range d.head {
			if i > 0 {
				b.WriteString(", ")
			}
			if headNames != nil && t.isVar() {
				b.WriteString(headNames[i])
				b.WriteString("=")
			}
			writeTerm(t)
		}
		b.WriteString(")")
	}
	b.WriteString(" :- ")
	for i := range d.atoms {
		if i > 0 {
			b.WriteString(", ")
		}
		a := &d.atoms[i]
		if a.source {
			b.WriteString("src:")
		} else {
			b.WriteString("tgt:")
		}
		writeName(&b, a.rel, exact)
		b.WriteString("(")
		for p, t := range a.args {
			if p > 0 {
				b.WriteString(", ")
			}
			writeTerm(t)
		}
		b.WriteString(")")
	}
	return b.String()
}

// writeName writes a relation name or constant text, quoted when exact.
func writeName(b *strings.Builder, name string, exact bool) {
	if exact {
		var buf [64]byte
		b.Write(strconv.AppendQuote(buf[:0], name))
		return
	}
	b.WriteString(name)
}

// key is the exact, injective (slot-numbered) form of one atom, used
// to drop duplicate atoms within a disjunct.
func (a *catom) key() string {
	var b strings.Builder
	b.Grow(8 + len(a.rel) + 8*len(a.args))
	if a.source {
		b.WriteString("s:")
	} else {
		b.WriteString("t:")
	}
	writeName(&b, a.rel, true)
	for _, t := range a.args {
		b.WriteString("|")
		switch {
		case t.constant:
			writeName(&b, t.val.String(), true)
		case t.param:
			b.WriteString("$")
			b.WriteString(strconv.Itoa(t.v))
		default:
			b.WriteString("v")
			b.WriteString(strconv.Itoa(t.v))
		}
	}
	return b.String()
}
