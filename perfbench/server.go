package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running octserve process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan error // receives cmd.Wait's result once
}

// startServer execs the octserve binary with args plus a free loopback
// -addr, logging to logPath, and waits until /healthz answers.
func startServer(ctx context.Context, bin, logPath string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The server must not outlive the benchmark, even when the benchmark is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan error, 1)}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting octserve: %w", err)
	}
	go func() { s.done <- cmd.Wait() }()
	if err := s.waitHealthy(ctx); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (s *server) waitHealthy(ctx context.Context) error {
	c := newConn()
	defer c.CloseIdleConnections()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.done:
			s.done <- err
			return fmt.Errorf("octserve exited during start-up: %v (see %s)", err, s.log.Name())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if resp, err := c.Get(s.base + "/healthz"); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("octserve not healthy after 60s (see %s)", s.log.Name())
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop sends SIGTERM, waits up to 15s for a graceful exit, then kills. It
// returns only once the process has ended.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(15 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// newConn returns a client that holds at most one connection: each load
// worker owns one, so a run never uses more connections than workers.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// result is one HTTP exchange.
type result struct {
	status int
	body   []byte
	header http.Header
}

func (r result) ok() bool { return r.status >= 200 && r.status < 300 }

func do(ctx context.Context, c *http.Client, method, url string, body []byte) (result, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return result{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return result{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return result{}, err
	}
	return result{status: resp.StatusCode, body: b, header: resp.Header}, nil
}
