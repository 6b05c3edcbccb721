package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env locates everything a run needs on disk. All of it is inside the
// checkout: binaries and the build cache under .bench_build/, scratch
// datasets, logs, traces and run artifacts under benchmark/out/.
type env struct {
	root     string // repository root (the directory of lowdimlp's go.mod)
	outDir   string // benchmark/out
	lpserved string // built lpserved binary
	exe      string // this binary (re-run as the workload child)
}

// findRoot walks up from the working directory to lowdimlp's go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(data)), "module lowdimlp\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("lpmark: not inside the lowdimlp repository (no go.mod with `module lowdimlp` above the working directory)")
		}
		dir = parent
	}
}

// newEnv resolves the directories and builds lpserved once, before
// anything is timed (go's build cache makes a rebuild a no-op).
func newEnv(needServer bool) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{root: root, outDir: filepath.Join(root, "benchmark", "out")}
	if e.exe, err = os.Executable(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	if needServer {
		binDir := filepath.Join(root, ".bench_build")
		if err := os.MkdirAll(binDir, 0o755); err != nil {
			return nil, err
		}
		e.lpserved = filepath.Join(binDir, "lpserved")
		build := exec.Command("go", "build", "-o", e.lpserved, "./cmd/lpserved")
		build.Dir = root
		if out, err := build.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("building lpserved: %v\n%s", err, out)
		}
	}
	return e, nil
}

// workDir makes a fresh scratch directory for one set-up.
func (e *env) workDir(workload string) (string, error) {
	return os.MkdirTemp(e.outDir, "work-"+workload+"-")
}

// proc is one process under test.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait returned
}

func startProc(name, logPath, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, cmd: exec.Command(bin, args...), done: make(chan struct{})}
	if logPath != "" {
		f, err := os.Create(logPath)
		if err != nil {
			return nil, err
		}
		p.log = f
		p.cmd.Stdout, p.cmd.Stderr = f, f
	}
	dieWithParent(p.cmd)
	if err := p.cmd.Start(); err != nil {
		if p.log != nil {
			p.log.Close()
		}
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	go p.reap()
	return p, nil
}

func (p *proc) reap() {
	p.cmd.Wait()
	close(p.done)
}

// stop ends the process and waits until it is gone: SIGTERM first (a
// clean lpserved drain), SIGKILL after the grace.
func (p *proc) stop(grace time.Duration) {
	if p == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(grace):
		p.cmd.Process.Kill()
		<-p.done
	}
	if p.log != nil {
		p.log.Close()
	}
}

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat
// (100 on every Linux the Go toolchain supports).
const clockTick = 100

// cpuMS is the user+sys CPU the process has used, from /proc.
func (p *proc) cpuMS() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th of the line, the 12th and 13th after ") ".
	i := strings.LastIndexByte(string(data), ')')
	if i < 0 {
		return 0
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) * 1000 / clockTick
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func (p *proc) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// freeAddr reserves a localhost port and releases it for a child to
// bind (the usual pre-grab race is acceptable on a private host).
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitHealthy polls /healthz until the server answers.
func waitHealthy(addr string, p *proc) error {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up (see its log under benchmark/out)", p.name)
		default:
		}
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s on %s never became healthy", p.name, addr)
}

// startWorkers launches one `lpserved -worker` per shard file and
// returns them with their base URLs in site order.
func (e *env) startWorkers(dir, tag string, shards []string) ([]*proc, []string, error) {
	var procs []*proc
	var urls []string
	for i, shard := range shards {
		addr, err := freeAddr()
		if err != nil {
			return procs, nil, err
		}
		name := fmt.Sprintf("worker-%s-%d", tag, i)
		p, err := startProc(name, filepath.Join(dir, name+".log"), e.lpserved, "-worker", shard, "-addr", addr)
		if err != nil {
			return procs, nil, err
		}
		procs = append(procs, p)
		urls = append(urls, "http://"+addr)
	}
	for i, p := range procs {
		if err := waitHealthy(strings.TrimPrefix(urls[i], "http://"), p); err != nil {
			return procs, nil, err
		}
	}
	return procs, urls, nil
}

// errDeadline reports an op (or set-up) that outlived its deadline;
// the child has been killed.
var errDeadline = errors.New("deadline passed; child killed")

// child is the supervisor's handle on the workload child process.
type child struct {
	*proc
	stdin   io.WriteCloser
	replies chan childReply
}

func (e *env) startChild(logPath string) (*child, error) {
	c := &child{proc: &proc{name: "child", cmd: exec.Command(e.exe, "child"), done: make(chan struct{})},
		replies: make(chan childReply)}
	var err error
	if c.stdin, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if c.log, err = os.Create(logPath); err != nil {
		return nil, err
	}
	c.cmd.Stderr = c.log
	dieWithParent(c.cmd)
	if err := c.cmd.Start(); err != nil {
		c.log.Close()
		return nil, fmt.Errorf("starting workload child: %w", err)
	}
	// The reader owns stdout and must drain it before Wait runs (Wait
	// closes the pipe), so it reaps the process itself.
	go func() {
		r := bufio.NewReaderSize(stdout, 1<<20)
		for {
			line, err := r.ReadBytes('\n')
			if len(line) > 0 {
				var rep childReply
				if jerr := json.Unmarshal(line, &rep); jerr != nil {
					rep.Err = "bad reply from child: " + jerr.Error()
				}
				c.replies <- rep
			}
			if err != nil {
				break
			}
		}
		close(c.replies)
		c.reap()
	}()
	return c, nil
}

// call sends one request and waits for its reply. When the deadline
// passes first the child is killed — the only way to stop a library
// solve — and errDeadline returned; the caller respawns.
func (c *child) call(req childReq, deadline time.Duration) (childReply, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return childReply{}, err
	}
	if _, err := c.stdin.Write(append(data, '\n')); err != nil {
		return childReply{}, fmt.Errorf("child is gone: %w", err)
	}
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	select {
	case rep, ok := <-c.replies:
		if !ok {
			return childReply{}, errors.New("child exited without replying (see child.log under benchmark/out)")
		}
		if rep.Err != "" {
			return rep, errors.New(rep.Err)
		}
		return rep, nil
	case <-timer.C:
		c.kill()
		return childReply{}, errDeadline
	}
}

// kill stops the child hard and waits for it.
func (c *child) kill() {
	c.cmd.Process.Kill()
	for range c.replies { // let the reader finish
	}
	<-c.done
	c.log.Close()
}

// quit asks the child to exit and waits for it.
func (c *child) quit() {
	if c == nil {
		return
	}
	data, _ := json.Marshal(childReq{Cmd: "quit"})
	c.stdin.Write(append(data, '\n'))
	c.stdin.Close()
	select {
	case <-c.done:
		c.log.Close()
	case <-time.After(5 * time.Second):
		c.kill()
	}
}
