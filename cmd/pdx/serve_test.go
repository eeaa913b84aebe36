package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/pde/client"
)

// TestServeEndToEnd builds the pdx binary, starts `pdx serve` on an
// ephemeral port with the smoke setting preloaded, drives the register
// → exists-solution → certain-answers round trip with the typed
// client, and checks SIGTERM drains to a clean exit.
func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the pdx binary")
	}
	bin := filepath.Join(t.TempDir(), "pdx")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building pdx: %v", err)
	}

	var stderr bytes.Buffer
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "../../examples/settings/server-smoke.pde")
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	}()

	// The daemon prints exactly one line once it accepts connections.
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var banner string
	select {
	case banner = <-lines:
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon never announced its address; stderr:\n%s", stderr.String())
	}
	base := strings.TrimPrefix(banner, "pdxd listening on ")
	if base == banner || !strings.HasPrefix(base, "http://") {
		t.Fatalf("unexpected banner %q", banner)
	}

	c := client.New(base)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The preloaded setting makes registration an idempotent no-op.
	setting, err := os.ReadFile("../../examples/settings/server-smoke.pde")
	if err != nil {
		t.Fatal(err)
	}
	reg, err := c.Register(ctx, string(setting))
	if err != nil {
		t.Fatalf("register: %v; stderr:\n%s", err, stderr.String())
	}
	if reg.Created || reg.Name != "server_smoke" || reg.Strategy != "tractable" {
		t.Fatalf("preloaded setting registered oddly: %+v", reg)
	}

	for _, tc := range []struct {
		file string
		want bool
	}{
		{"path.facts", false},
		{"selfloop.facts", true},
		{"triangle.facts", true},
	} {
		src, err := os.ReadFile(filepath.Join("../../examples/corpus", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.ExistsSolution(ctx, client.SolveRequest{SettingID: reg.ID, Source: string(src)})
		if err != nil {
			t.Fatalf("solve %s: %v", tc.file, err)
		}
		if res.Exists != tc.want {
			t.Errorf("%s: exists=%v, want %v", tc.file, res.Exists, tc.want)
		}
	}

	tri, err := os.ReadFile("../../examples/corpus/triangle.facts")
	if err != nil {
		t.Fatal(err)
	}
	query, err := os.ReadFile("../../examples/corpus/queries.cq")
	if err != nil {
		t.Fatal(err)
	}
	ca, err := c.CertainAnswers(ctx, client.CertainRequest{
		SettingID: reg.ID, Source: string(tri), Query: string(query),
	})
	if err != nil {
		t.Fatalf("certain: %v", err)
	}
	if len(ca.Answers) != 1 || ca.Answers[0][0] != "a" || ca.Answers[0][1] != "c" {
		t.Errorf("certain answers = %v, want [[a c]]", ca.Answers)
	}

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" || h.Settings != 1 {
		t.Fatalf("health: %+v, %v", h, err)
	}

	// Graceful drain: SIGTERM must produce a clean exit.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		var exitErr *exec.ExitError
		if errors.As(err, &exitErr) || err != nil {
			t.Fatalf("daemon exited uncleanly: %v; stderr:\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain within 30s; stderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), `"msg":"drained"`) {
		t.Errorf("drain log missing from stderr:\n%s", stderr.String())
	}
}

// TestNewHTTPServerTimeouts pins the slow-client protection of pdx
// serve: a header deadline and an idle keep-alive limit.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.NotFoundHandler()
	hs := newHTTPServer(h)
	if hs.ReadHeaderTimeout != readHeaderTimeout || hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want %v", hs.ReadHeaderTimeout, readHeaderTimeout)
	}
	if hs.IdleTimeout != idleTimeout || hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want %v", hs.IdleTimeout, idleTimeout)
	}
	if hs.Handler == nil {
		t.Error("handler not installed")
	}
}
