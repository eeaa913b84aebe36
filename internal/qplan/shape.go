// Query shapes and plan templates.
//
// Unfolding compares constants only for equality: with each other and
// with the constants of the setting's dependencies. A query constant
// the setting never mentions is therefore interchangeable with any
// other such constant, as long as the query's equality pattern is
// kept. The shape of a query lifts exactly those constants into
// numbered parameters; one Template compiled per shape then serves
// every query of that shape, and Bind fills the parameters in at the
// cost of a copy instead of an unfolding.
package qplan

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/certain"
	"repro/internal/rel"
)

// ShapeOf returns the shape key of q over the setting and the values of
// the shape's parameters, in parameter order.
//
// The shape is q without its name, with the variables of each
// disjunct numbered by first occurrence (head first), and with every
// constant that occurs in no dependency of the setting replaced by a
// parameter numbered by first occurrence. Repeated occurrences of one
// constant share one parameter, so the key keeps the query's equality
// pattern; constants of the setting stay literal in the key. Queries
// with equal keys have templates that differ in nothing but the
// parameter values, so CompileTemplate on either serves both.
func (sp *SettingPlan) ShapeOf(q certain.UCQ) (key string, params []rel.Value) {
	lifted := make(map[string]int, 4)
	var b strings.Builder
	b.Grow(32 * len(q))
	writeInt := func(tag byte, n int) {
		b.WriteByte(tag)
		b.WriteString(strconv.Itoa(n))
		b.WriteByte(',')
	}
	writeText := func(tag byte, s string) {
		b.WriteByte(tag)
		b.WriteString(strconv.Itoa(len(s)))
		b.WriteByte(':')
		b.WriteString(s)
	}
	for _, cq := range q {
		vars := make(map[string]int, 8)
		varIndex := func(name string) int {
			k, ok := vars[name]
			if !ok {
				k = len(vars)
				vars[name] = k
			}
			return k
		}
		b.WriteByte('h')
		for _, h := range cq.Head {
			writeInt('v', varIndex(h))
		}
		for _, a := range cq.Body {
			writeText('r', a.Rel)
			b.WriteByte('(')
			for _, t := range a.Args {
				switch {
				case !t.IsConst:
					writeInt('v', varIndex(t.Name))
				case sp.constants[t.Name]:
					writeText('c', t.Name)
					b.WriteByte(',')
				default:
					k, ok := lifted[t.Name]
					if !ok {
						k = len(params)
						lifted[t.Name] = k
						params = append(params, rel.Const(t.Name))
					}
					writeInt('p', k)
				}
			}
			b.WriteByte(')')
		}
		b.WriteByte(';')
	}
	return b.String(), params
}

// Template is a compiled plan for a query shape: its disjuncts hold
// parameter terms where the query held lifted constants. It is
// immutable and safe for concurrent use; Bind turns it into a Plan.
type Template struct {
	plan    Plan
	nparams int
	// natoms and nterms size Bind's copies: the atoms of the disjuncts
	// holding a parameter, and the terms of those atoms and heads.
	natoms, nterms int
}

// CompileTemplate compiles the shape of q (see ShapeOf). The query must
// validate against the setting's target schema. A *FallbackError
// (plan-too-large) depends on the shape alone, so it holds for every
// query of the shape.
func (sp *SettingPlan) CompileTemplate(q certain.UCQ) (*Template, error) {
	_, params := sp.ShapeOf(q)
	lifted := make(map[string]int, len(params))
	for k, v := range params {
		lifted[v.ConstText()] = k
	}
	p, err := sp.compile(q, lifted)
	if err != nil {
		return nil, err
	}
	t := &Template{plan: *p, nparams: len(params)}
	for k := range t.plan.disjuncts {
		d := &t.plan.disjuncts[k]
		d.params = hasParam(d.head)
		for _, a := range d.atoms {
			d.params = d.params || hasParam(a.args)
		}
		if !d.params {
			continue
		}
		t.natoms += len(d.atoms)
		t.nterms += len(d.head)
		for _, a := range d.atoms {
			t.nterms += len(a.args)
		}
	}
	return t, nil
}

func hasParam(ts []cterm) bool {
	for _, t := range ts {
		if t.param {
			return true
		}
	}
	return false
}

// Bind returns the plan of the query named name whose shape parameters
// are params, as ShapeOf returns them for a query of the template's
// shape. The plan equals CompileQuery's on that query. Bind panics when
// params does not fit the template: only a caller pairing a template
// with another shape's parameters can cause that.
func (t *Template) Bind(name string, params []rel.Value) *Plan {
	if len(params) != t.nparams {
		panic(fmt.Sprintf("qplan: Bind: %d parameters for a template of %d", len(params), t.nparams))
	}
	p := t.plan
	p.name = name
	if t.nparams == 0 {
		return &p
	}
	// Disjuncts without parameters are shared with the template; the
	// others are copied into two arenas sized at compile time, so a
	// bind costs four allocations whatever the plan's size.
	p.disjuncts = append([]disjunct(nil), t.plan.disjuncts...)
	atoms := make([]catom, 0, t.natoms)
	terms := make([]cterm, 0, t.nterms)
	for k := range p.disjuncts {
		d := &p.disjuncts[k]
		if !d.params {
			continue
		}
		d.params = false
		d.head, terms = bindInto(terms, d.head, params)
		start := len(atoms)
		atoms = append(atoms, d.atoms...)
		d.atoms = atoms[start:len(atoms):len(atoms)]
		for a := range d.atoms {
			d.atoms[a].args, terms = bindInto(terms, d.atoms[a].args, params)
		}
	}
	return &p
}

// bindInto appends ts to arena with every parameter term replaced by
// its value, returning the appended terms and the grown arena. The
// arena's capacity is never exceeded, so earlier results stay valid.
func bindInto(arena, ts []cterm, params []rel.Value) (bound, rest []cterm) {
	start := len(arena)
	for _, t := range ts {
		if t.param {
			t = cterm{constant: true, val: params[t.v]}
		}
		arena = append(arena, t)
	}
	return arena[start:len(arena):len(arena)], arena
}
