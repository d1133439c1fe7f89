package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one serving process the benchmark started.
type child struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
	log  *tailBuffer
}

// procSet owns every child process of a run and stops them all.
type procSet struct {
	gomaxprocs int
	mu         sync.Mutex
	children   []*child
}

// start launches a serving binary on a free loopback port and waits
// until its /healthz answers 200.
func (ps *procSet) start(name, bin string, args ...string) (*child, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		cmd := exec.Command(bin, append(args, "-http", addr)...)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(ps.gomaxprocs))
		c := &child{name: name, url: "http://" + addr, cmd: cmd, done: make(chan struct{}), log: &tailBuffer{max: 4096}}
		cmd.Stdout, cmd.Stderr = c.log, c.log
		// The kernel kills the child if the benchmark dies first.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, fmt.Errorf("start %s: %w", name, err)
		}
		go func() { cmd.Wait(); close(c.done) }()
		ps.mu.Lock()
		ps.children = append(ps.children, c)
		ps.mu.Unlock()
		if lastErr = c.waitReady(60 * time.Second); lastErr == nil {
			return c, nil
		}
		ps.stop(c)
	}
	return nil, lastErr
}

func (c *child) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return fmt.Errorf("%s exited during start-up: %s", c.name, c.log.String())
		default:
		}
		resp, err := scrapeClient.Get(c.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %s: %s", c.name, limit, c.log.String())
}

func (c *child) pid() string { return strconv.Itoa(c.cmd.Process.Pid) }

// stop sends SIGTERM (the servers drain and exit), escalates to SIGKILL
// after five seconds, waits for the exit either way, and forgets c.
func (ps *procSet) stop(c *child) {
	ps.mu.Lock()
	for i, x := range ps.children {
		if x == c {
			ps.children = append(ps.children[:i], ps.children[i+1:]...)
			break
		}
	}
	ps.mu.Unlock()
	halt(c)
}

func halt(c *child) {
	select {
	case <-c.done:
		return
	default:
	}
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		c.cmd.Process.Kill()
		<-c.done
	}
}

// stopAll stops every child, in reverse start order, and waits for each.
// It reports a child that had exited before it was asked to stop.
func (ps *procSet) stopAll() error {
	ps.mu.Lock()
	children := ps.children
	ps.children = nil
	ps.mu.Unlock()
	var err error
	for i := len(children) - 1; i >= 0; i-- {
		c := children[i]
		select {
		case <-c.done:
			if err == nil {
				err = fmt.Errorf("%s exited while serving: %s: %s", c.name, c.cmd.ProcessState, c.log.String())
			}
		default:
		}
		halt(c)
	}
	return err
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tailBuffer keeps the last max bytes a child wrote, for error reports.
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
		t.buf = append([]byte(nil), t.buf[len(t.buf)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.TrimSpace(string(t.buf))
}

// scrapeClient reads /metrics and /healthz on its own connections, apart
// from the load clients' two.
var scrapeClient = &http.Client{Timeout: 10 * time.Second}

// scrape is one child's /metrics series and /healthz document.
type scrape struct {
	series  map[string]float64
	healthz map[string]any
}

func (c *child) scrape() (*scrape, error) {
	s := &scrape{series: map[string]float64{}}
	body, err := get(c.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape %s /metrics: %w", c.name, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("scrape %s: bad /metrics line %q", c.name, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: bad /metrics line %q", c.name, line)
		}
		s.series[line[:i]] = v
	}
	if body, err = get(c.url + "/healthz"); err != nil {
		return nil, fmt.Errorf("scrape %s /healthz: %w", c.name, err)
	}
	if err := json.Unmarshal(body, &s.healthz); err != nil {
		return nil, fmt.Errorf("scrape %s /healthz: %w", c.name, err)
	}
	return s, nil
}

func get(url string) ([]byte, error) {
	resp, err := scrapeClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// delta is the change of one series between two scrapes (0 when absent
// from both).
func delta(before, after *scrape, series string) float64 {
	return after.series[series] - before.series[series]
}

// healthNum reads a number at a path of the /healthz document, 0 when
// absent.
func (s *scrape) healthNum(path ...string) float64 {
	var cur any = s.healthz
	for _, p := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = m[p]
	}
	v, _ := cur.(float64)
	return v
}

// endpointTime is an endpoint's request count and summed server time
// (ms) between two scrapes.
func endpointTime(before, after *scrape, endpoint string) (count, sumMs float64) {
	count = delta(before, after, fmt.Sprintf("hydra_request_duration_seconds_count{endpoint=%q}", endpoint))
	sumMs = 1e3 * delta(before, after, fmt.Sprintf("hydra_request_duration_seconds_sum{endpoint=%q}", endpoint))
	return count, sumMs
}

// scrapeAll scrapes every child; any failure fails the run.
func scrapeAll(cs []*child) ([]*scrape, error) {
	out := make([]*scrape, len(cs))
	for i, c := range cs {
		s, err := c.scrape()
		if err != nil {
			return nil, err
		}
		out[i] = s
	}
	return out, nil
}
