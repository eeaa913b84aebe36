package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/workload"
)

// repoRoot is the repository checkout this module sits in.
const repoRoot = ".."

func testEnv(t *testing.T, seed int64) *env {
	t.Helper()
	st, err := loadSettings(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{root: repoRoot, work: t.TempDir(), seed: seed, seconds: 1, scale: 0.05, st: st}
	if err := writeSettingFiles(e); err != nil {
		t.Fatal(err)
	}
	return e
}

// bodies prepares a workload and returns every request body it would
// send, in order.
func bodies(t *testing.T, e *env, name string) []byte {
	t.Helper()
	pl, err := prepare(e, name)
	if err != nil {
		t.Fatal(err)
	}
	if err := parallel(2, pl.jobs); err != nil {
		t.Fatal(err)
	}
	pl.build()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, list := range [][]*request{pl.warm, pl.open, pl.closed} {
		for _, r := range list {
			var dto any
			switch {
			case r.solve != nil:
				dto = r.solve
			case r.certain != nil:
				dto = r.certain
			case r.batch != nil:
				dto = r.batch
			default:
				dto = struct {
					Base string
					Req  any
				}{r.appendTo, r.app}
			}
			if err := enc.Encode(struct {
				Op  int
				Due int64
				Own bool
				Req any
			}{r.op, int64(r.due), r.owner, dto}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			a := bodies(t, testEnv(t, 7), w.Name)
			b := bodies(t, testEnv(t, 7), w.Name)
			if !bytes.Equal(a, b) {
				t.Fatalf("seed 7 produced different request bodies across two preparations")
			}
			if c := bodies(t, testEnv(t, 8), w.Name); bytes.Equal(a, c) {
				t.Fatalf("seeds 7 and 8 produced identical request bodies")
			}
		})
	}
}

// TestSmokeTiny runs every workload at a tiny size against the real
// daemon, untraced and traced, and checks that every named metric is
// reported and no request failed.
func TestSmokeTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	bin := filepath.Join(t.TempDir(), "pdx")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/pdx")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building pdx: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			e := testEnv(t, 3)
			e.bin = bin
			res, err := runOnce(context.Background(), e, w.Name, traced, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.Name, traced, res.correct, res.failed, res.attempted)
			}
			table := append(append([]metricSpec{}, endToEnd...), reportOnly...)
			if traced {
				table = w.layerTable()
			}
			for _, m := range table {
				if v := res.get(m.Name); math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s = %v", w.Name, traced, m.Name, v)
				}
			}
			if !traced && res.get("failed_ratio") != 0 {
				t.Errorf("%s: failed_ratio = %v", w.Name, res.get("failed_ratio"))
			}
			if _, err := res.jsonLine(table); err != nil {
				t.Error(err)
			}
		}
	}
}

// TestOracleMatchesChaseBacked checks the lav certain-answer oracle
// (naive evaluation over the data-exchange universal solution) against
// the library's chase-backed entry points, which enumerate image
// solutions. The enumeration is exponential in the nulls: at four
// persons a query takes tens of milliseconds, at eight it runs past
// seconds, so the pairs stay at four.
func TestOracleMatchesChaseBacked(t *testing.T) {
	st, err := loadSettings(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, solvable := range []bool{true, false} {
			rng := rand.New(rand.NewSource(seed))
			i, j := workload.LAVInstance(4, solvable, rng)
			queries := lavQueries(4, 6, "", rng)
			got, err := newPairOracle(st.lav, i, j).certain(queries)
			if err != nil {
				t.Fatal(err)
			}
			want, err := newPairOracle(&setting{name: "lav-chase-backed", s: st.lav.s}, i, j).certain(queries)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d solvable=%v: oracle %+v, chase-backed %+v", seed, solvable, got, want)
			}
		}
	}
}

// TestSpecFileCurrent keeps SPEC.json equal to -describe's output.
func TestSpecFileCurrent(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("SPEC.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("SPEC.json is stale: regenerate it with `pdxperf -describe > pdxperf/SPEC.json`")
	}
}

// TestBenchmarkJSONMatchesSpec keeps the repository's BENCHMARK.json
// in step with the metric and workload tables.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricSpec `json:"end_to_end"`
		PerLayer  []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var listed []workloadSpec
	for _, w := range workloads {
		if w.Listed {
			listed = append(listed, w)
		}
	}
	if len(b.Workloads) != len(listed) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec lists %d", len(b.Workloads), len(listed))
	}
	for k, w := range b.Workloads {
		if w.Name != listed[k].Name || w.Why != listed[k].Why {
			t.Errorf("workload %d: %+v in BENCHMARK.json, %s %q in spec", k, w, listed[k].Name, listed[k].Why)
		}
	}
	same := func(kind string, got, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec", kind, len(got), len(want))
		}
		for k := range got {
			g, w := got[k], want[k]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better || g.Bound != w.Bound {
				t.Errorf("%s %d: BENCHMARK.json %+v, spec %+v", kind, k, g, w)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestQuartiles pins the quartile method to Python's
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}
