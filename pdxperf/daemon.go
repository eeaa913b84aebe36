package main

// Daemon lifecycle: start `pdx serve` as a child process, read its
// listening line, scrape /metrics and /proc, and stop it with SIGTERM
// (the daemon drains and flushes its snapshot queue) and a wait.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/pde/client"
)

// daemon is one running `pdx serve` process.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	ctl    *client.Client // control-plane client: set-up and scrapes
	waited chan struct{}  // closed once cmd.Wait has returned
	err    error          // cmd.Wait's result, valid after waited
	log    *tailBuffer    // the end of the daemon's log
}

// tailBuffer keeps the last tailSize bytes written to it. The daemon
// logs one line per request; keeping only the tail in memory gives
// start-up errors their context without a log file whose writes would
// contend with the snapshot store's fsyncs on the same disk.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

const tailSize = 8 << 10

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > tailSize {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-tailSize:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// startDaemon launches `bin serve args... settingFiles...` and waits
// for its "pdxd listening on URL" line. addr is the listen address.
func startDaemon(bin, addr string, args, settingFiles []string) (*daemon, error) {
	full := append([]string{"serve", "-addr", addr}, args...)
	full = append(full, settingFiles...)
	cmd := exec.Command(bin, full...)
	tail := &tailBuffer{}
	cmd.Stderr = tail
	// The kernel kills the daemon if the benchmark dies first.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, waited: make(chan struct{}), log: tail}
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
		_, _ = io.Copy(io.Discard, out) // keep the pipe drained until exit
	}()
	go func() {
		d.err = cmd.Wait()
		close(d.waited)
	}()
	select {
	case line, ok := <-lines:
		const prefix = "pdxd listening on "
		if !ok || !strings.HasPrefix(line, prefix) {
			d.stop()
			return nil, fmt.Errorf("daemon did not start: %q; log tail:\n%s", line, d.log)
		}
		d.url = strings.TrimPrefix(line, prefix)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("daemon did not announce its address within 60s; log tail:\n%s", d.log)
	}
	d.ctl = client.New(d.url, &http.Client{Timeout: 60 * time.Second})
	return d, nil
}

// stop sends SIGTERM, waits for the drain, and kills the process if it
// has not exited after 30s. It returns once the process has exited.
func (d *daemon) stop() {
	select {
	case <-d.waited:
	default:
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
		select {
		case <-d.waited:
		case <-time.After(30 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.waited
		}
	}
}

// alive reports whether the process is still running.
func (d *daemon) alive() bool {
	select {
	case <-d.waited:
		return false
	default:
		return true
	}
}

// rssPeakMiB reads VmHWM of the daemon from /proc.
func (d *daemon) rssPeakMiB() (float64, error) {
	data, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// scrape reads /metrics into a map from series name to value. Series
// with labels are also summed under their family name.
func (d *daemon) scrape(ctx context.Context) (metricsSnap, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", d.url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", d.url, err)
	}
	m := metricsSnap{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		m[series] = v
		if br := strings.IndexByte(series, '{'); br >= 0 {
			m[series[:br]] += v
		}
	}
	return m, nil
}

// metricsSnap is one /metrics scrape.
type metricsSnap map[string]float64

// delta returns after minus before for one series.
func delta(before, after metricsSnap, name string) float64 { return after[name] - before[name] }

// sumSnaps adds scrapes of several shards.
func sumSnaps(snaps []metricsSnap) metricsSnap {
	out := metricsSnap{}
	for _, s := range snaps {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}
