package main

import (
	"bufio"
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

// server is one propserve subprocess on loopback.
type server struct {
	cmd  *exec.Cmd
	base string
	log  string
	done chan struct{} // closed when the process has exited
}

// spawn starts propserve with args plus a free loopback -addr, and returns
// once /readyz answers 200, with the time that took.
func spawn(bin string, args []string, logPath string) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = logf // stdout (the access log) goes to the null device
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting propserve: %w", err)
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logPath, done: make(chan struct{})}
	go func() { cmd.Wait(); close(s.done) }() // the exit status is read from ProcessState
	// Polls reuse one kept-alive connection once the server listens, so
	// a poll costs a request, not a connect, and the set-up time is read
	// to within the 100 µs between polls.
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer probe.CloseIdleConnections()
	for deadline := start.Add(90 * time.Second); time.Now().Before(deadline); {
		select {
		case <-s.done:
			return nil, 0, fmt.Errorf("propserve exited during start-up (%v): %s", cmd.ProcessState, s.tail())
		default:
		}
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) // drained, so the connection is reused
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.stop()
	return nil, 0, errors.New("propserve not ready after 90s: " + s.tail())
}

// stop ends the server with SIGTERM (SIGKILL after 10s) and waits for it.
func (s *server) stop() {
	s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-s.done
	}
}

// peakRSSMB is the server's VmHWM from /proc/<pid>/status, in MB.
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
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func (s *server) tail() string {
	b, _ := os.ReadFile(s.log) // best effort: only decorates an error
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return strings.TrimSpace(string(b))
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// counters are the server-side counters the benchmark reads from /v1/stats
// and /metrics before and after each measured phase.
type counters map[string]float64

func scrape(c *http.Client, base string) (counters, error) {
	var st struct {
		Engine struct {
			Cache struct {
				Hits, Misses, Coalesced, Evictions float64
			}
			Builds float64
		}
		Gate struct {
			Admitted, Shed float64
		}
	}
	if err := getJSON(c, base, "/v1/stats", &st); err != nil {
		return nil, err
	}
	out := counters{
		"hits": st.Engine.Cache.Hits, "misses": st.Engine.Cache.Misses,
		"coalesced": st.Engine.Cache.Coalesced, "evictions": st.Engine.Cache.Evictions,
		"builds": st.Engine.Builds, "admitted": st.Gate.Admitted, "shed": st.Gate.Shed,
	}
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		switch name {
		case "propserve_gate_queue_wait_seconds_sum", "propserve_gate_queue_wait_seconds_count":
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("/metrics %s: %w", name, err)
			}
			out[strings.TrimPrefix(name, "propserve_gate_")] = v
		}
	}
	return out, sc.Err()
}

func (after counters) minus(before counters) counters {
	d := counters{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}
