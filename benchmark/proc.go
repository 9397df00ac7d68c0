package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"prefcqa/client"
)

// env is where a run lives on disk: the repository checkout the
// server is built from and the scratch directory (inside the checkout)
// that holds the built binary and every data directory of the run.
type env struct {
	root     string // repository root (holds cmd/prefserve)
	buildDir string // root/.bench_build
	runDir   string // buildDir/run-<pid>, removed at exit
	bin      string // built prefserve
}

// findRoot locates the repository root. The benchmark is a module of
// its own, so it only ever runs as `go run -C benchmark .`, which starts
// it in benchmark/: the root is the directory above.
func findRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	root := filepath.Dir(wd)
	if _, err := os.Stat(filepath.Join(root, "cmd", "prefserve", "main.go")); err != nil {
		return "", fmt.Errorf("no prefcqa repository (cmd/prefserve) above %s; run `go run -C benchmark .` from its root: %w", wd, err)
	}
	return root, nil
}

func newEnv(root string) (*env, error) {
	e := &env{root: root, buildDir: filepath.Join(root, ".bench_build")}
	e.runDir = filepath.Join(e.buildDir, "run-"+strconv.Itoa(os.Getpid()))
	e.bin = filepath.Join(e.buildDir, "prefserve")
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) cleanup() { os.RemoveAll(e.runDir) }

// buildServer compiles ./cmd/prefserve from the checkout. The go build
// cache makes every build after the first a sub-second no-op; the time
// is never part of a metric.
func (e *env) buildServer() error {
	cmd := exec.Command("go", "build", "-o", e.bin, "./cmd/prefserve")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building prefserve: %v\n%s", err, out)
	}
	return nil
}

// dataDir returns a fresh data directory under the run directory.
func (e *env) dataDir(name string) (string, error) {
	return os.MkdirTemp(e.runDir, name+"-")
}

// child is one prefserve process on loopback.
type child struct {
	cmd  *exec.Cmd
	url  string
	done chan struct{} // closed once the stderr reader has drained

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// startServer launches prefserve with stock flags plus args on an
// ephemeral loopback port and waits for its "listening on" line.
func (e *env) startServer(args ...string) (*child, error) {
	cmd := exec.Command(e.bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	addr := make(chan string, 1) // one send: the listening line
	go func() {
		defer close(c.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			if c.tail = append(c.tail, line); len(c.tail) > 20 {
				c.tail = c.tail[1:]
			}
			c.mu.Unlock()
			if _, a, ok := strings.Cut(line, "listening on "); ok {
				select {
				case addr <- strings.TrimSpace(a):
				default:
				}
			}
		}
	}()
	select {
	case a := <-addr:
		c.url = "http://" + a
		return c, nil
	case <-c.done:
		cmd.Wait() //nolint:errcheck // the stderr tail is the report
		return nil, fmt.Errorf("prefserve exited before listening:\n%s", c.stderrTail())
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, fmt.Errorf("prefserve did not listen within 60s:\n%s", c.stderrTail())
	}
}

func (c *child) stderrTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, "\n")
}

// kill delivers SIGKILL and reaps the process: the crash of the
// durability check. The operating system's page cache survives, so
// this proves process-crash durability, not power-loss durability.
func (c *child) kill() {
	c.cmd.Process.Kill() //nolint:errcheck // already exited is fine
	<-c.done
	c.cmd.Wait() //nolint:errcheck // killed on purpose
}

// stop ends the child without ever waiting on the server's drain: the
// caller has closed its idle connections, SIGTERM asks politely, and
// SIGKILL follows after 2s so a stalled Shutdown cannot hang the run.
func (c *child) stop() {
	c.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // already exited is fine
	exited := make(chan struct{})
	go func() {
		<-c.done
		c.cmd.Wait() //nolint:errcheck // exit status of a stopped server is irrelevant
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(2 * time.Second):
		c.cmd.Process.Kill() //nolint:errcheck // already exited is fine
		<-exited
	}
}

// rssMB reads the child's peak resident set (VmHWM) in MB.
func (c *child) rssMB() (float64, error) {
	blob, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(blob, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// conn is the benchmark's connection pool to one server: its own
// transport holding at most `clients` keep-alive connections.
type conn struct {
	tr *http.Transport
	*client.Client
}

func dial(url string, clients int) *conn {
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	return &conn{tr: tr, Client: client.New(url, client.WithHTTPClient(&http.Client{Transport: tr}))}
}

func (c *conn) close() { c.tr.CloseIdleConnections() }

// requestTimeout is the per-request server-side deadline every read
// carries: a generator bug that reaches an exponential repair walk
// fails fast (504) instead of hanging the run.
const requestTimeout = 5 * time.Second

// reqCtx bounds one request on the client side, a little above the
// server-side deadline so the server's 504 is what gets reported.
func reqCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	return context.WithTimeout(ctx, requestTimeout+2*time.Second)
}
