package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/reductions"
	"repro/pde"
	"repro/pde/client"
)

// example1 is the paper's running example (Example 1): source edges,
// target composed-edge relation, and a Σts that accepts only real
// edges. In C_tract.
const example1 = `
setting example1
source E/2
target H/2
st: E(x,z), E(z,y) -> H(x,y)
ts: H(x,y) -> E(x,y)
`

// newTestServer starts a pdxd handler on an httptest server and
// returns the typed client pointed at it.
func newTestServer(t *testing.T, cfg Config) (*Server, *client.Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, client.New(ts.URL)
}

// cliqueWorkload returns setting and instance text for a CLIQUE
// reduction that the generic solver cannot finish in seconds (no
// 5-clique in a random 12-vertex graph: the search is exhaustive).
func cliqueWorkload() (setting, source, target string) {
	rng := rand.New(rand.NewSource(7))
	g := graph.Random(12, 0.5, rng)
	s := reductions.CliqueSetting()
	i, j := reductions.CliqueInstance(g, 5)
	return pde.FormatSetting(s), pde.FormatInstance(i), pde.FormatInstance(j)
}

func TestRoundTripExample1(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	reg, err := c.Register(ctx, example1)
	if err != nil {
		t.Fatalf("register: %v", err)
	}
	if !reg.Created || !reg.InCtract || reg.Strategy != "tractable" || reg.Name != "example1" {
		t.Fatalf("unexpected registration: %+v", reg)
	}
	if !strings.HasPrefix(reg.ID, "sha256:") {
		t.Fatalf("ID %q is not a content hash", reg.ID)
	}

	// Idempotent re-registration, even with different formatting.
	again, err := c.Register(ctx, example1+"\n\n")
	if err != nil {
		t.Fatalf("re-register: %v", err)
	}
	if again.Created || again.ID != reg.ID {
		t.Fatalf("re-registration not idempotent: %+v vs %+v", again, reg)
	}

	// EXP-EX1 verdicts: path no, self-loop yes, triangle yes.
	for _, tc := range []struct {
		source string
		want   bool
	}{
		{"E(a,b). E(b,c).", false},
		{"E(a,a).", true},
		{"E(a,b). E(b,c). E(a,c).", true},
	} {
		res, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, Source: tc.source})
		if err != nil {
			t.Fatalf("solve %q: %v", tc.source, err)
		}
		if res.Exists != tc.want || res.Strategy != "tractable" {
			t.Errorf("%q: got exists=%v strategy=%s, want %v/tractable", tc.source, res.Exists, res.Strategy, tc.want)
		}
	}

	// Witness solution for the self-loop.
	res, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, Source: "E(a,a).", Witness: true})
	if err != nil {
		t.Fatalf("witness solve: %v", err)
	}
	if !res.Exists || !strings.Contains(res.Solution, "H(a, a)") {
		t.Errorf("witness: exists=%v solution=%q", res.Exists, res.Solution)
	}

	// Certain answers on the triangle: exactly (a, c).
	ca, err := c.CertainAnswers(ctx, client.CertainRequest{
		SettingID: reg.ID,
		Source:    "E(a,b). E(b,c). E(a,c).",
		Query:     "q(x,y) :- H(x,y)",
	})
	if err != nil {
		t.Fatalf("certain: %v", err)
	}
	if !ca.SolutionExists || len(ca.Answers) != 1 || ca.Answers[0][0] != "a" || ca.Answers[0][1] != "c" {
		t.Errorf("certain answers: %+v, want exactly [a c]", ca)
	}

	// Classify by registry ID and inline.
	cls, err := c.Classify(ctx, client.ClassifyRequest{SettingID: reg.ID})
	if err != nil || !cls.InCtract {
		t.Errorf("classify by id: %+v, %v", cls, err)
	}
	cls, err = c.Classify(ctx, client.ClassifyRequest{Setting: example1})
	if err != nil || !cls.InCtract {
		t.Errorf("classify inline: %+v, %v", cls, err)
	}

	// Vet inline.
	vet, err := c.Vet(ctx, client.VetRequest{Setting: example1, File: "example1.pde"})
	if err != nil {
		t.Fatalf("vet: %v", err)
	}
	if vet.Errors != 0 {
		t.Errorf("vet found errors in a clean setting: %+v", vet)
	}

	// List, evict, 404 after.
	list, err := c.Settings(ctx)
	if err != nil || len(list.Settings) != 1 || list.Settings[0].ID != reg.ID {
		t.Fatalf("list: %+v, %v", list, err)
	}
	if err := c.Evict(ctx, reg.ID); err != nil {
		t.Fatalf("evict: %v", err)
	}
	_, err = c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, Source: "E(a,a)."})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Code != client.CodeNotFound {
		t.Fatalf("solve after evict: want 404 not_found, got %v", err)
	}

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" || h.Settings != 0 {
		t.Errorf("health: %+v, %v", h, err)
	}
}

func TestBadRequests(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	reg, err := c.Register(ctx, example1)
	if err != nil {
		t.Fatal(err)
	}
	var apiErr *client.APIError

	_, err = c.Register(ctx, "not a setting at all ===")
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("garbage setting: want 400, got %v", err)
	}
	_, err = c.ExistsSolution(ctx, client.SolveRequest{SettingID: "sha256:feed", Source: "E(a,a)."})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Errorf("unknown setting: want 404, got %v", err)
	}
	_, err = c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, Source: "E(a,"})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("bad instance: want 400, got %v", err)
	}
	_, err = c.CertainAnswers(ctx, client.CertainRequest{SettingID: reg.ID, Source: "E(a,a).", Query: "nope"})
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
		t.Errorf("bad query: want 400, got %v", err)
	}
}

// TestDeadline is the acceptance scenario: a 50ms deadline against a
// workload that needs well over a second serially must come back
// promptly with a deadline error.
func TestDeadline(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	setting, source, target := cliqueWorkload()
	reg, err := c.Register(ctx, setting)
	if err != nil {
		t.Fatalf("register clique setting: %v", err)
	}
	if reg.Strategy != "generic" {
		t.Fatalf("clique setting classified %q, want generic", reg.Strategy)
	}

	start := time.Now()
	_, err = c.ExistsSolution(ctx, client.SolveRequest{
		SettingID:      reg.ID,
		Source:         source,
		Target:         target,
		DeadlineMillis: 50,
	})
	elapsed := time.Since(start)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want APIError, got %v", err)
	}
	if apiErr.Status != http.StatusGatewayTimeout || apiErr.Code != client.CodeDeadlineExceeded {
		t.Fatalf("want 504 deadline_exceeded, got %d %s (%s)", apiErr.Status, apiErr.Code, apiErr.Message)
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline response took %v, want prompt (≤2s)", elapsed)
	}
}

// TestMaxNodesBudget exercises the server-side search budget mapping.
func TestMaxNodesBudget(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	setting, source, target := cliqueWorkload()
	reg, err := c.Register(ctx, setting)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.ExistsSolution(ctx, client.SolveRequest{
		SettingID: reg.ID, Source: source, Target: target, MaxNodes: 100,
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusUnprocessableEntity || apiErr.Code != client.CodeUnprocessable {
		t.Fatalf("want 422 unprocessable for budget exhaustion, got %v", err)
	}
}

// blockSlot occupies admission slots with a slow clique solve and
// returns once the server reports it in flight.
func blockSlot(t *testing.T, s *Server, c *client.Client, id, source, target string) (cancel func()) {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The solve ends via client-side cancel; the error is expected.
		_, _ = c.ExistsSolution(ctx, client.SolveRequest{
			SettingID: id, Source: source, Target: target, DeadlineMillis: 60_000,
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for s.InFlight() == 0 {
		if time.Now().After(deadline) {
			stop()
			t.Fatal("blocking solve never became in-flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return func() {
		stop()
		<-done
	}
}

// TestAdmissionShedding fills the single in-flight slot, disallows
// queueing, and checks the next solve is shed with 429.
func TestAdmissionShedding(t *testing.T) {
	s, c := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: -1})
	ctx := context.Background()

	setting, source, target := cliqueWorkload()
	reg, err := c.Register(ctx, setting)
	if err != nil {
		t.Fatal(err)
	}
	stop := blockSlot(t, s, c, reg.ID, source, target)
	defer stop()

	_, err = c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, Source: source, Target: target})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || apiErr.Code != client.CodeOverloaded {
		t.Fatalf("want 429 overloaded, got %v", err)
	}
}

// TestQueueDeadline queues behind a busy slot and lets the request
// deadline expire while waiting: 504, and promptly.
func TestQueueDeadline(t *testing.T) {
	s, c := newTestServer(t, Config{MaxInFlight: 1, MaxQueue: 1})
	ctx := context.Background()

	setting, source, target := cliqueWorkload()
	reg, err := c.Register(ctx, setting)
	if err != nil {
		t.Fatal(err)
	}
	stop := blockSlot(t, s, c, reg.ID, source, target)
	defer stop()

	start := time.Now()
	_, err = c.ExistsSolution(ctx, client.SolveRequest{
		SettingID: reg.ID, Source: source, Target: target, DeadlineMillis: 100,
	})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusGatewayTimeout || apiErr.Code != client.CodeDeadlineExceeded {
		t.Fatalf("want 504 deadline_exceeded from the queue, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("queued deadline took %v, want prompt", elapsed)
	}
}

// TestDrain checks StartDrain sheds new solves while health reports
// draining.
func TestDrain(t *testing.T) {
	s, c := newTestServer(t, Config{})
	ctx := context.Background()

	reg, err := c.Register(ctx, example1)
	if err != nil {
		t.Fatal(err)
	}
	s.StartDrain()
	_, err = c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, Source: "E(a,a)."})
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != client.CodeShuttingDown {
		t.Fatalf("want 503 shutting_down, got %v", err)
	}
	h, err := c.Health(ctx)
	if err != nil || h.Status != "draining" {
		t.Errorf("health during drain: %+v, %v", h, err)
	}
}

// TestConcurrentClients hammers one registered setting from 32 clients
// (the acceptance race scenario; run under -race). The admission queue
// holds every client: with the default queue (2×GOMAXPROCS) a small
// machine rightly sheds some of them with 429, which TestAdmissionShedding
// covers, and which is not what this test checks.
func TestConcurrentClients(t *testing.T) {
	_, c := newTestServer(t, Config{MaxQueue: 32})
	ctx := context.Background()

	reg, err := c.Register(ctx, example1)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		source string
		want   bool
	}{
		{"E(a,b). E(b,c).", false},
		{"E(a,a).", true},
		{"E(a,b). E(b,c). E(a,c).", true},
	}
	var wg sync.WaitGroup
	errc := make(chan error, 32)
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 4; n++ {
				tc := cases[(w+n)%len(cases)]
				res, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, Source: tc.source})
				if err != nil {
					errc <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				if res.Exists != tc.want {
					errc <- fmt.Errorf("worker %d: %q got %v want %v", w, tc.source, res.Exists, tc.want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestRegistryConcurrent drives register/get/list/evict of the same
// settings from many goroutines (run under -race).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	settings := []string{
		example1,
		"setting s2\nsource A/1\ntarget B/1\nst: A(x) -> B(x)\nts: B(x) -> A(x)\n",
		"setting s3\nsource C/2\ntarget D/2\nst: C(x,y) -> D(x,y)\nts: D(x,y) -> C(x,y)\n",
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				src := settings[(w+n)%len(settings)]
				c, _, err := r.Register(src)
				if err != nil {
					t.Errorf("register: %v", err)
					return
				}
				if got := r.Get(c.ID); got != nil && got.ID != c.ID {
					t.Errorf("get returned wrong entry")
					return
				}
				r.List()
				if n%7 == 0 {
					r.Evict(c.ID)
				}
			}
		}(w)
	}
	wg.Wait()
	// Settle to a known state: everything registered exactly once.
	for _, src := range settings {
		if _, _, err := r.Register(src); err != nil {
			t.Fatal(err)
		}
	}
	if r.Len() != len(settings) {
		t.Errorf("registry has %d settings, want %d", r.Len(), len(settings))
	}
}

func TestMetricsAndLogs(t *testing.T) {
	var mu sync.Mutex
	var logs strings.Builder
	logger := slog.New(slog.NewJSONHandler(&lockedWriter{mu: &mu, w: &logs}, nil))
	_, c := newTestServer(t, Config{Logger: logger})
	ctx := context.Background()

	reg, err := c.Register(ctx, example1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, Source: "E(a,a)."}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(strings.TrimSuffix(c.Base(), "/") + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`pdxd_requests_total{route="settings-register",status="201"} 1`,
		`pdxd_requests_total{route="exists-solution",status="200"} 1`,
		"pdxd_registry_settings 1",
		"pdxd_in_flight_solves 0",
		"pdxd_shed_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
	mu.Lock()
	logged := logs.String()
	mu.Unlock()
	for _, want := range []string{`"route":"exists-solution"`, `"status":200`, `"msg":"request"`} {
		if !strings.Contains(logged, want) {
			t.Errorf("request log missing %q in:\n%s", want, logged)
		}
	}
}

// lockedWriter serializes concurrent handler goroutines writing to the
// test's log buffer.
type lockedWriter struct {
	mu *sync.Mutex
	w  io.Writer
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

// TestRoutePanicContained checks a panicking handler is answered with a
// typed 500 and counted, a deliberate http.ErrAbortHandler propagates,
// and a panic after the response started aborts instead of appending a
// 500 to a half-written body.
func TestRoutePanicContained(t *testing.T) {
	s := New(Config{})
	boom := s.route("boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	rec := httptest.NewRecorder()
	boom(rec, httptest.NewRequest(http.MethodPost, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var body struct{ Error client.APIError }
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error.Code != client.CodeInternal {
		t.Fatalf("body %q (err %v), want code %q", rec.Body, err, client.CodeInternal)
	}
	metrics := s.met.render(0, 0, 0, 0)
	for _, want := range []string{"pdxd_panics_total 1\n", `pdxd_requests_total{route="boom",status="500"} 1`} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics lack %q", want)
		}
	}

	for name, h := range map[string]http.HandlerFunc{
		"abort": func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) },
		"late": func(w http.ResponseWriter, _ *http.Request) {
			_, _ = w.Write([]byte("partial"))
			panic("late")
		},
	} {
		func() {
			defer func() {
				if v := recover(); v != http.ErrAbortHandler {
					t.Errorf("%s: recovered %v, want http.ErrAbortHandler", name, v)
				}
			}()
			s.route(name, h)(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
		}()
	}
	if !strings.Contains(s.met.render(0, 0, 0, 0), "pdxd_panics_total 2\n") {
		t.Error("the late panic was not counted")
	}
}

// TestRequestDurationSubMillisecond checks fast requests add up instead
// of truncating to zero milliseconds each.
func TestRequestDurationSubMillisecond(t *testing.T) {
	m := newMetrics()
	m.observe("healthz", http.StatusOK, 200*time.Microsecond)
	m.observe("healthz", http.StatusOK, 200*time.Microsecond)
	out := m.render(0, 0, 0, 0)
	for _, want := range []string{
		`pdxd_request_duration_milliseconds_sum{route="healthz"} 0.400`,
		`pdxd_request_duration_milliseconds_count{route="healthz"} 2`,
		`pdxd_requests_total{route="healthz",status="200"} 2`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("metrics lack %q", want)
		}
	}
}
