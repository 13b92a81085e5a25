//go:build linux

package main

import (
	"bufio"
	"encoding/json"
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
)

// outDir holds everything a run leaves behind (binaries, server logs,
// WAL temp dirs, results, span files); bench/.gitignore covers it.
const outDir = "bench/out"

// buildServer compiles cmd/stmkvd from the working tree and returns the
// binary's path and how long the build took.
func buildServer() (bin string, took time.Duration, err error) {
	bin, err = filepath.Abs(filepath.Join(outDir, "bin", "stmkvd"))
	if err != nil {
		return "", 0, err
	}
	t0 := time.Now()
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/stmkvd")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", 0, fmt.Errorf("build cmd/stmkvd: %w", err)
	}
	return bin, time.Since(t0), nil
}

// child is one running stmkvd process.
type child struct {
	cmd       *exec.Cmd
	httpAddr  string
	protoAddr string
	// exited closes once the process is reaped and its log is drained.
	exited chan struct{}
}

// children tracks every process the command started, so the exit path can
// prove none outlives it.
var children struct {
	//stm:allow-atomic process bookkeeping of the benchmark; no transaction involved
	mu  sync.Mutex
	all []*child
}

// startChild boots stmkvd on ephemeral ports and returns once both listen
// addresses have appeared in its log. The log is teed to logPath.
func startChild(bin string, flags []string, logPath string) (*child, error) {
	return startServer(bin, append([]string{"-addr", "127.0.0.1:0", "-proto-addr", "127.0.0.1:0"}, flags...), logPath)
}

// startServer runs any server that logs stmkvd's two `listening on` lines:
// stmkvd itself or the yardstick.
func startServer(bin string, args []string, logPath string) (*child, error) {
	cmd := exec.Command(bin, args...)
	// The child must never outlive the benchmark, even if the benchmark
	// is killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	cmd.Stdout, cmd.Stderr = pw, pw
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		pr.Close()
		pw.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	pw.Close()
	c := &child{cmd: cmd, exited: make(chan struct{})}
	children.mu.Lock()
	children.all = append(children.all, c)
	children.mu.Unlock()

	type addrs struct{ http, proto string }
	found := make(chan addrs, 1)
	go func() {
		defer close(c.exited)
		defer logf.Close()
		defer pr.Close()
		fmt.Fprintf(logf, "--- %s %s\n", bin, strings.Join(args, " "))
		var a addrs
		sent := false
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if v, ok := strings.CutPrefix(line, "stmkvd: http listening on "); ok {
				a.http = v
			}
			if v, ok := strings.CutPrefix(line, "stmkvd: proto listening on "); ok {
				a.proto = v
			}
			if !sent && a.http != "" && a.proto != "" {
				sent = true
				found <- a
			}
		}
		_ = cmd.Wait() // exit status is judged by whoever stopped the child
	}()

	select {
	case a := <-found:
		c.httpAddr, c.protoAddr = a.http, a.proto
		return c, nil
	case <-c.exited:
		return nil, fmt.Errorf("%s exited before listening; see %s", filepath.Base(bin), logPath)
	case <-time.After(20 * time.Second):
		c.kill()
		return nil, fmt.Errorf("%s did not log its listen addresses within 20s; see %s", filepath.Base(bin), logPath)
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stop asks the child to shut down and waits for it; a child that ignores
// SIGTERM for 10s is killed and reported.
func (c *child) stop() error {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
		return nil
	case <-time.After(10 * time.Second):
		c.kill()
		return fmt.Errorf("%s ignored SIGTERM for 10s and was killed", filepath.Base(c.cmd.Path))
	}
}

// kill is a crash: SIGKILL, no shutdown path runs.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.exited
}

// reapAll kills whatever is still running and reports how many children
// had outlived their run.
func reapAll() (stragglers int) {
	children.mu.Lock()
	defer children.mu.Unlock()
	for _, c := range children.all {
		select {
		case <-c.exited:
		default:
			stragglers++
			c.kill()
		}
	}
	return stragglers
}

// waitReady polls /readyz until it answers 200.
func (c *child) waitReady(hc *http.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := hc.Get("http://" + c.httpAddr + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.exited:
			return errors.New("stmkvd exited while starting")
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stmkvd not ready after %v", limit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// getJSON fetches one of the child's JSON endpoints (/stats, /tuning).
func (c *child) getJSON(hc *http.Client, path string) (map[string]any, error) {
	resp, err := hc.Get("http://" + c.httpAddr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	return doc, nil
}

// getMetrics scrapes /metrics and reports how long the scrape took.
func (c *child) getMetrics(hc *http.Client) (promSamples, time.Duration, error) {
	t0 := time.Now()
	resp, err := hc.Get("http://" + c.httpAddr + "/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	p, err := parseProm(resp.Body)
	return p, time.Since(t0), err
}

// procSample is what /proc/<pid> says about a process at one instant.
type procSample struct {
	utime, stime float64 // seconds, in clock ticks
	// cpu is on-CPU time summed over the live threads' schedstat, in
	// seconds with nanosecond resolution; ticks when schedstat is missing.
	cpu     float64
	hwmMB   float64 // VmHWM, peak resident set
	threads float64
	volCtx  float64 // voluntary context switches, summed over threads
}

// clockTick is USER_HZ; Linux fixes it at 100 for every architecture Go
// supports, so /proc/<pid>/stat times are in 10ms units.
const clockTick = 100

func readProc(pid int) (procSample, error) {
	var s procSample
	root := fmt.Sprintf("/proc/%d", pid)
	stat, err := os.ReadFile(root + "/stat")
	if err != nil {
		return s, err
	}
	// Fields after the parenthesised command name: state is field 3, so
	// utime (14) and stime (15) are at offsets 11 and 12 from there.
	i := strings.LastIndexByte(string(stat), ')')
	f := strings.Fields(string(stat[i+1:]))
	if i < 0 || len(f) < 13 {
		return s, fmt.Errorf("malformed %s/stat", root)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return s, fmt.Errorf("malformed cpu times in %s/stat", root)
	}
	s.utime, s.stime = ut/clockTick, st/clockTick
	status, err := os.ReadFile(root + "/status")
	if err != nil {
		return s, err
	}
	s.hwmMB = statusField(status, "VmHWM") / 1024
	s.threads = statusField(status, "Threads")

	tasks, err := os.ReadDir(root + "/task")
	if err != nil {
		return s, err
	}
	for _, t := range tasks {
		dir := root + "/task/" + t.Name()
		if b, err := os.ReadFile(dir + "/schedstat"); err == nil {
			if fs := strings.Fields(string(b)); len(fs) > 0 {
				ns, _ := strconv.ParseFloat(fs[0], 64)
				s.cpu += ns / 1e9
			}
		}
		if b, err := os.ReadFile(dir + "/status"); err == nil {
			s.volCtx += statusField(b, "voluntary_ctxt_switches")
		}
	}
	if s.cpu == 0 {
		s.cpu = s.utime + s.stime
	}
	return s, nil
}

// statusField returns the first number on the `key:` line of a
// /proc/<pid>/status document, 0 when the line is missing.
func statusField(status []byte, key string) float64 {
	for _, line := range strings.Split(string(status), "\n") {
		k, v, ok := strings.Cut(line, ":")
		if !ok || k != key {
			continue
		}
		if fs := strings.Fields(v); len(fs) > 0 {
			n, _ := strconv.ParseFloat(fs[0], 64)
			return n
		}
	}
	return 0
}

// selfCPU is this process's user+system CPU time so far, in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
