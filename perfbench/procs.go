package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"qosrma/internal/arch"
	"qosrma/internal/simdb"
	"qosrma/internal/trace"
)

// buildDB builds the database qosrmad builds by default (-cores 4).
func buildDB() (*simdb.DB, error) {
	return simdb.Build(arch.DefaultSystemConfig(4), trace.Suite(), simdb.DefaultBuildOptions())
}

// proc is one child process the benchmark owns until it has exited.
type proc struct {
	name string
	cmd  *exec.Cmd
	done chan struct{}
	logs *tailBuffer
}

var (
	procsMu sync.Mutex
	procs   []*proc
)

// spawn starts a child that is killed if the benchmark dies first.
func spawn(name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{}), logs: &tailBuffer{max: 8 << 10}}
	cmd.Stdout = p.logs
	cmd.Stderr = p.logs
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		cmd.Wait() //nolint:errcheck // exit status is judged by alive(), not here
		close(p.done)
	}()
	procsMu.Lock()
	procs = append(procs, p)
	procsMu.Unlock()
	return p, nil
}

func (p *proc) alive() bool {
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// mustBeAlive reports a child that died while it should be serving.
func (p *proc) mustBeAlive() error {
	if !p.alive() {
		return fmt.Errorf("%s (pid %d) died mid-run: %s", p.name, p.cmd.Process.Pid, p.logs.String())
	}
	return nil
}

// stop drains the child with SIGTERM, kills it after a grace period, and
// waits until it has exited.
func (p *proc) stop() {
	if p.alive() {
		p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exiting is fine
		select {
		case <-p.done:
		case <-time.After(5 * time.Second):
			p.cmd.Process.Kill() //nolint:errcheck // already gone is fine
			<-p.done
		}
	}
	procsMu.Lock()
	for i, q := range procs {
		if q == p {
			procs = append(procs[:i], procs[i+1:]...)
			break
		}
	}
	procsMu.Unlock()
}

// stopAll stops every child still running.
func stopAll() {
	procsMu.Lock()
	all := append([]*proc(nil), procs...)
	procsMu.Unlock()
	for _, p := range all {
		p.stop()
	}
}

// peakRSSMB is the child's VmHWM in MB (read before it exits).
func peakRSSMB(pid int) (float64, error) {
	kb, err := procStatusKB(pid, "VmHWM:")
	return kb / 1024, err
}

func procStatusKB(pid int, field string) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, field) {
			f := strings.Fields(line)
			if len(f) >= 2 {
				return strconv.ParseFloat(f[1], 64)
			}
		}
	}
	return 0, fmt.Errorf("%s: no %s", path, field)
}

// cpuSeconds is the child's utime+stime.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc/%d/stat", pid)
	}
	return (u + st) / 100, nil
}

// freePort reserves a loopback port that nothing answers on.
func freePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	if c, err := net.DialTimeout("tcp", addr, 100*time.Millisecond); err == nil {
		c.Close()
		return "", fmt.Errorf("stale listener answers on %s", addr)
	}
	return addr, nil
}

// tailBuffer keeps the last max bytes a child wrote.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(bytes.TrimSpace(t.buf))
}

// runRecord is stored with every result; informational, never gated.
type runRecord struct {
	Workload     string `json:"workload"`
	Seed         uint64 `json:"seed"`
	Trace        bool   `json:"trace"`
	GitSHA       string `json:"git_sha"`
	SourceDigest string `json:"source_digest"`
	CPUModel     string `json:"cpu_model"`
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	GoLines      int    `json:"non_test_go_lines"`
}

func newRunRecord(cfg config) runRecord {
	r := runRecord{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Trace:      cfg.trace,
		GitSHA:     gitSHA(cfg.root),
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}
	r.SourceDigest, r.GoLines = sourceStats(cfg.root)
	return r
}

// gitSHA resolves HEAD by reading .git directly; a checkout without git
// metadata records "none".
func gitSHA(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	if f, err := os.Open(filepath.Join(root, ".git", "packed-refs")); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if sha, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
				return sha
			}
		}
	}
	return "none"
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceStats hashes every Go source and module file of the checkout (the
// code under test plus the benchmark) and counts the module's non-test Go
// lines, the size measure tracked beside the performance numbers.
func sourceStats(root string) (digest string, lines int) {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error { //nolint:errcheck // best effort record
		if err != nil {
			return nil
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return nil
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel) //nolint:errcheck // hash writes cannot fail
		data, err := io.ReadAll(f)
		if err != nil {
			return nil
		}
		h.Write(data) //nolint:errcheck // hash writes cannot fail
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") &&
			!strings.HasPrefix(rel, "perfbench"+string(filepath.Separator)) {
			lines += bytes.Count(data, []byte{'\n'})
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16], lines
}
