package main

// Seeded input generation: the three settings, instance shapes of each
// family, query pools and append batches. Every function is a pure
// function of its arguments and the rand source it is handed, so a
// seed fixes every request body.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/server"
	"repro/internal/workload"
	"repro/pde"
)

// setting is one registered setting with its wire ID.
type setting struct {
	name    string
	text    string
	id      string
	s       *pde.Setting
	plan    *pde.SettingPlan // nil when the setting does not compile
	generic bool             // the daemon solves it with the generic solver
}

// settings holds the three settings every workload registers.
type settings struct {
	lav, full, keyed *setting
	all              []*setting
}

// keyedSettingFile is the repository example whose key egd makes the
// generic solver and egd merges run.
const keyedSettingFile = "examples/settings/keyed.pde"

// loadSettings builds the settings from the workload generators and
// the repository's keyed.pde, and computes their daemon IDs the way
// the daemon's registry does.
func loadSettings(root string) (*settings, error) {
	keyed, err := os.ReadFile(filepath.Join(root, keyedSettingFile))
	if err != nil {
		return nil, err
	}
	texts := [][2]string{
		{"lav", pde.FormatSetting(workload.LAVSetting())},
		{"full-st", pde.FormatSetting(workload.FullSTSetting())},
		{"keyed", string(keyed)},
	}
	out := &settings{}
	for _, t := range texts {
		c, err := server.Compile(t[1])
		if err != nil {
			return nil, fmt.Errorf("setting %s: %w", t[0], err)
		}
		st := &setting{name: t[0], text: t[1], id: c.ID, s: c.Setting, plan: c.Plan, generic: c.Strategy == string(pde.StrategyGeneric)}
		out.all = append(out.all, st)
	}
	out.lav, out.full, out.keyed = out.all[0], out.all[1], out.all[2]
	return out, nil
}

// instanceID is the daemon's content ID for an instance.
func instanceID(inst *pde.Instance) string {
	sum := sha256.Sum256([]byte(pde.FormatInstance(inst)))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// keyedShape builds a keyed.pde pair of n keys: E(a_k, b_k) in the
// source. A clean target copies H(a_k, b_k) for odd k, so the key
// holds and a solution exists. A drafts target holds null drafts
// H(a_k, _x) for every k (two for even k), so the chase merges each
// draft into the st-derived constant: merge-heavy, and no solution
// exists because the drafts are part of J.
func keyedShape(n int, drafts bool) (*pde.Instance, *pde.Instance) {
	i, j := pde.NewInstance(), pde.NewInstance()
	for k := 0; k < n; k++ {
		a, b := pde.Const(fmt.Sprintf("a%d", k)), pde.Const(fmt.Sprintf("b%d", k))
		i.Add("E", a, b)
		switch {
		case drafts:
			j.Add("H", a, pde.NullValue(2*k+1))
			if k%2 == 0 {
				j.Add("H", a, pde.NullValue(2*k+2))
			}
		case k%2 == 1:
			j.Add("H", a, b)
		}
	}
	return i, j
}

// retag renames every constant c of inst to tag+c. The settings
// mention no constants, so renaming preserves every verdict and maps
// certain answers through the same renaming.
func retag(inst *pde.Instance, tag string) *pde.Instance {
	if tag == "" {
		return inst
	}
	out := pde.NewInstance()
	for _, f := range inst.Facts() {
		args := make([]pde.Value, len(f.Args))
		for k, v := range f.Args {
			if v.IsNull() {
				args[k] = v
			} else {
				args[k] = pde.Const(tag + v.ConstText())
			}
		}
		out.Add(f.Rel, args...)
	}
	return out
}

// lavQueries returns count queries over a lav pair of n persons: open
// group queries and Boolean membership probes, alternating. Constants
// carry tag.
func lavQueries(n, count int, tag string, rng *rand.Rand) []string {
	groups := max(1, n/10)
	out := make([]string, count)
	for k := range out {
		if k%2 == 0 {
			out[k] = fmt.Sprintf("q%d(x) :- Rec(x, '%sg%d', u)", k, tag, rng.Intn(groups))
		} else {
			out[k] = fmt.Sprintf("b%d :- Rec('%sp%d', '%sg%d', u)", k, tag, rng.Intn(n), tag, rng.Intn(groups))
		}
	}
	return out
}

// keyedQueries returns count queries over a keyed.pde pair of n keys.
func keyedQueries(n, count int, tag string, rng *rand.Rand) []string {
	out := make([]string, count)
	for k := range out {
		a, b := rng.Intn(n), rng.Intn(n)
		if k%2 == 0 {
			out[k] = fmt.Sprintf("q%d(x) :- H(x, '%sb%d')", k, tag, b)
		} else {
			out[k] = fmt.Sprintf("b%d :- H('%sa%d', '%sb%d')", k, tag, a, tag, b)
		}
	}
	return out
}

// lavAppend returns appendFacts fresh facts for a lav instance: new
// persons, each with its Person and Member fact in an existing group,
// so the pair stays as solvable as it was.
func lavAppend(groups, first int) *pde.Instance {
	a := pde.NewInstance()
	for p := first; p < first+appendFacts/2; p++ {
		person := pde.Const(fmt.Sprintf("x%d", p))
		g := pde.Const(fmt.Sprintf("g%d", p%groups))
		a.Add("Person", person, g)
		a.Add("Member", person, g)
	}
	return a
}

// keyedAppend returns appendFacts fresh source facts for a keyed.pde
// instance: new keys the target does not mention.
func keyedAppend(first int, tag string) *pde.Instance {
	a := pde.NewInstance()
	for k := first; k < first+appendFacts; k++ {
		a.Add("E", pde.Const(fmt.Sprintf("%sxa%d", tag, k)), pde.Const(fmt.Sprintf("%sxb%d", tag, k)))
	}
	return a
}

// union returns base ∪ delta as a new instance.
func union(base, delta *pde.Instance) *pde.Instance {
	u := base.Clone()
	for _, f := range delta.Facts() {
		u.AddFact(f)
	}
	return u
}
