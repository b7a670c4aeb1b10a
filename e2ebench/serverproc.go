package main

import (
	"bufio"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	disc "github.com/discdiversity/disc"
	"github.com/discdiversity/disc/internal/server"
)

func numCPU() int { return runtime.NumCPU() }

// serverProc is a spawned discserve.
type serverProc struct {
	cmd  *exec.Cmd
	base string
	dir  string
}

// serverArgs are the discserve flags a workload runs with. Durable
// state lives in dir.
func serverArgs(w *workload, dir string) []string {
	args := []string{"-log-level", "warn"}
	if w.name == "ingest" {
		args = append(args, "-live", filepath.Join(dir, "live"), "-fsync", ingestFsync)
	}
	return args
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts discserve with GOMAXPROCS pinned to the CPU count and
// waits until /readyz answers 200.
func spawn(bin, dir string, w *workload) (*serverProc, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, serverArgs(w, dir)...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(numCPU()))
	// The server dies with the benchmark, even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(filepath.Join(dir, "server.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, base: "http://" + addr, dir: dir}
	if err := waitReady(p.base, 30*time.Second); err != nil {
		p.stop()
		return nil, err
	}
	return p, nil
}

func waitReady(base string, limit time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		resp, err := hc.Get(base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("server at %s not ready after %v", base, limit)
}

// stop asks the server to drain, kills it if it has not exited within
// ten seconds, and waits for it.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	exited := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-exited
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat times
// (100 on every Linux architecture Go supports).
const clockTick = 10 * time.Millisecond

// cpuTime reads the server's user plus system CPU time. Time the
// hypervisor stole from the machine is not in it.
func (p *serverProc) cpuTime() time.Duration {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(utime+stime) * clockTick
}

// rssMB reads the server's resident set size (VmRSS).
func (p *serverProc) rssMB() float64 {
	f, err := os.Open("/proc/" + strconv.Itoa(p.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// inProcess is server.New(...).Handler() served over loopback inside the
// benchmark, with the same settings discserve gets from serverArgs, and
// optionally wrapped by a span recorder.
type inProcess struct {
	srv  *server.Server
	ts   *httptest.Server
	rec  *recorder
	base string
}

func startInProcess(w *workload, dir string, traced bool) (*inProcess, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	// The discserve defaults for the hardening flags.
	opts := []server.Option{
		server.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))),
		server.WithMaxInflight(64),
		server.WithRequestTimeout(30 * time.Second),
		server.WithMaxBodyBytes(64 << 20),
	}
	if w.name == "ingest" {
		if err := os.MkdirAll(filepath.Join(dir, "live"), 0o755); err != nil {
			return nil, err
		}
		opts = append(opts, server.WithLiveDir(filepath.Join(dir, "live")),
			server.WithLiveFsync(disc.FsyncInterval), server.WithLiveFsyncInterval(100*time.Millisecond))
	}
	ip := &inProcess{srv: server.New(opts...)}
	var h http.Handler = ip.srv.Handler()
	if traced {
		ip.rec = newRecorder(h)
		h = ip.rec
	}
	ip.ts = httptest.NewServer(h)
	ip.base = ip.ts.URL
	return ip, nil
}

func (ip *inProcess) stop() {
	ip.ts.Close()
	_ = ip.srv.Close()
}
