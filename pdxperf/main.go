// Command pdxperf is the repository's end-to-end benchmark: it starts
// the real `pdx serve` binary, drives it with one of four traffic mixes
// over pde/client, checks every answer against an in-process oracle,
// and prints every metric by name and unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. With -trace 1 the metrics are the per-layer ones, from
// /metrics deltas and an in-process traced replay of a request sample.
//
// Run it from the repository root through pdxperf/run.sh, which builds
// both binaries under .bench_build/:
//
//	bash pdxperf/run.sh --workload warm-read --seed 1 --seconds 10 --trace 0
//	bash pdxperf/run.sh --steady 10 --workload cold-inline --seconds 10
//	bash pdxperf/run.sh --describe
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "pdxperf:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workload = flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Float64("seconds", 10, "measured seconds per run: three quarters open loop, a quarter closed loop")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		pdx      = flag.String("pdx", ".bench_build/pdx", "pdx binary")
		root     = flag.String("root", ".", "repository root")
		steady   = flag.Int("steady", 0, "steadiness mode: run each workload this many times with consecutive seeds")
		out      = flag.String("out", "", "steadiness mode: also write the summary as JSON to this file")
		describe = flag.Bool("describe", false, "print the workload and metric spec as JSON")
	)
	flag.Parse()
	if *describe {
		out, err := specJSON()
		if err != nil {
			return err
		}
		_, err = os.Stdout.Write(out)
		return err
	}
	if *steady > 0 {
		return steadiness(*steady, *workload, *seed, *seconds, *trace, *out)
	}
	w, ok := findWorkload(*workload)
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *workload, strings.Join(workloadNames(), ", "))
	}
	e, err := newEnv(*root, *pdx, *seed, *seconds)
	if err != nil {
		return err
	}
	defer os.RemoveAll(e.work)
	res, err := runOnce(context.Background(), e, *workload, *trace == 1, os.Stdout)
	if err != nil {
		return err
	}
	table := endToEnd
	if *trace == 1 {
		table = w.layerTable()
		printMetrics(res, table)
	} else {
		printMetrics(res, append(append([]metricSpec{}, endToEnd...), reportOnly...))
	}
	line, err := res.jsonLine(table)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// newEnv prepares a run's scratch directory and loads the settings.
func newEnv(root, pdx string, seed int64, seconds float64) (*env, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if !filepath.IsAbs(pdx) {
		pdx = filepath.Join(root, pdx)
	}
	if _, err := os.Stat(pdx); err != nil {
		return nil, fmt.Errorf("pdx binary: %w", err)
	}
	st, err := loadSettings(root)
	if err != nil {
		return nil, err
	}
	base := filepath.Join(root, ".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	e := &env{root: root, bin: pdx, work: work, seed: seed, seconds: seconds, scale: 1, st: st}
	if err := writeSettingFiles(e); err != nil {
		os.RemoveAll(work)
		return nil, err
	}
	return e, nil
}

func printMetrics(res *result, table []metricSpec) {
	for _, m := range table {
		fmt.Printf("  %-34s %14.4f %s\n", m.Name, res.get(m.Name), m.Unit)
	}
}

// specJSON renders the benchmark's spec (SPEC.json).
func specJSON() ([]byte, error) {
	out, err := json.MarshalIndent(struct {
		Note      string         `json:"note"`
		SetupRuns int            `json:"setup_repeats"`
		SetupMin  float64        `json:"setup_min_seconds"`
		Batch     int            `json:"batch_queries"`
		Append    int            `json:"append_facts"`
		Workloads []workloadSpec `json:"workloads"`
		EndToEnd  []metricSpec   `json:"end_to_end"`
		Report    []metricSpec   `json:"report_only"`
		PerLayer  []metricSpec   `json:"per_layer"`
		Cluster   []metricSpec   `json:"per_layer_proxied_read_only"`
	}{
		Note: "Rendered by `pdxperf -describe`. Connections: one per CPU (nproc), shared by the generator's workers; " +
			"the open loop runs three quarters of --seconds; the closed loop sends a fixed list sized to last about the last quarter. pdxbench -json, the BENCH_PR*.json files " +
			"and scripts/bench-compare.go are separate harnesses this benchmark leaves untouched; merging harnesses is ROADMAP open item 4.",
		SetupRuns: setupRepeats, SetupMin: setupMinTime.Seconds(), Batch: batchSize, Append: appendFacts,
		Workloads: workloads, EndToEnd: endToEnd, Report: reportOnly, PerLayer: perLayer, Cluster: clusterLayer,
	}, "", "  ")
	return append(out, '\n'), err
}

// steadyStat summarizes one metric over a steadiness run.
type steadyStat struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Bound  any       `json:"bound,omitempty"`
	Values []float64 `json:"values"`
}

// steadiness runs each workload n times as separate processes, with
// seeds seed..seed+n-1, and prints every metric's median, quartiles and
// spread (interquartile distance over median) against its bound. With
// out set it also writes the summary there as JSON.
func steadiness(n int, workload string, seed int64, seconds float64, trace int, out string) error {
	var ws []workloadSpec
	for _, w := range workloads {
		if w.Listed && workload == "" || w.Name == workload {
			ws = append(ws, w)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	pass := true
	summary := map[string]map[string]steadyStat{}
	for _, w := range ws {
		name, table := w.Name, endToEnd
		if trace == 1 {
			table = w.layerTable()
		}
		vals := map[string][]float64{}
		summary[name] = map[string]steadyStat{}
		for k := 0; k < n; k++ {
			args := []string{"-workload", name, "-seed", strconv.FormatInt(seed+int64(k), 10),
				"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-trace", strconv.Itoa(trace)}
			for _, f := range []string{"pdx", "root"} {
				args = append(args, "-"+f, flag.Lookup(f).Value.String())
			}
			out, err := exec.Command(self, args...).Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed+int64(k), err)
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct {
				Correct bool
				Failed  int
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed+int64(k), err)
			}
			if !res.Correct || res.Failed > 0 {
				pass = false
				fmt.Printf("%s seed %d: correct=%v failed=%d\n", name, seed+int64(k), res.Correct, res.Failed)
			}
			for m, v := range res.Metrics {
				vals[m] = append(vals[m], v.Value)
			}
		}
		fmt.Printf("%s: %d runs\n  %-30s %12s %12s %12s %8s %6s\n", name, n, "metric", "median", "q1", "q3", "spread", "bound")
		for _, m := range table {
			q1, med, q3 := quartiles(vals[m.Name])
			spread := (q3 - q1) / math.Abs(med)
			flagText := ""
			if b, ok := m.Bound.(float64); ok {
				flagText = fmt.Sprintf("%6.3f", b)
				if !(spread < b/3) {
					flagText += "  > bound/3"
					pass = false
				}
			}
			fmt.Printf("  %-30s %12.4f %12.4f %12.4f %8.3f %s\n", m.Name, med, q1, q3, spread, flagText)
			fmt.Printf("  %30s %s\n", "", fmtList(vals[m.Name]))
			summary[name][m.Name] = steadyStat{Median: med, Q1: q1, Q3: q3, Spread: spread, Bound: m.Bound, Values: vals[m.Name]}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "seconds": seconds,
			"seeds": fmt.Sprintf("%d..%d", seed, seed+int64(n)-1), "trace": trace, "workloads": summary,
		}, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(data, '\n'), 0o644)
		}
		if err != nil {
			return err
		}
	}
	if !pass {
		return fmt.Errorf("not steady")
	}
	return nil
}

// quartiles returns the quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method).
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}
