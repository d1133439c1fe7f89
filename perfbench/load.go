package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hydra/internal/serve"
)

// newLoadClient returns the HTTP client the load goroutines share. It
// never opens more than conns connections to a host.
func newLoadClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
		Timeout: 30 * time.Second,
	}
}

// topkReply is the body of GET /topk on both hydra-serve and the router.
type topkReply struct {
	Results      []serve.Scored `json:"results"`
	Degraded     bool           `json:"degraded"`
	FailedShards []int          `json:"failed_shards"`
}

func getTopK(c *http.Client, base, pa string, a int, pb string, k int) ([]serve.Scored, error) {
	q := url.Values{"pa": {pa}, "a": {strconv.Itoa(a)}, "pb": {pb}, "k": {strconv.Itoa(k)}}
	resp, err := c.Get(base + "/topk?" + q.Encode())
	if err != nil {
		return nil, err
	}
	var r topkReply
	if err := decodeReply(resp, &r); err != nil {
		return nil, err
	}
	if r.Degraded || len(r.FailedShards) > 0 {
		return nil, fmt.Errorf("degraded top-k: failed shards %v", r.FailedShards)
	}
	return r.Results, nil
}

func postScore(c *http.Client, base, pa, pb string, pairs [][2]int) ([]float64, error) {
	body, err := json.Marshal(map[string]any{"pa": pa, "pb": pb, "pairs": pairs})
	if err != nil {
		return nil, err
	}
	resp, err := c.Post(base+"/score", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	var r struct {
		Scores []float64 `json:"scores"`
	}
	if err := decodeReply(resp, &r); err != nil {
		return nil, err
	}
	if len(r.Scores) != len(pairs) {
		return nil, fmt.Errorf("score reply has %d scores for %d pairs", len(r.Scores), len(pairs))
	}
	return r.Scores, nil
}

func decodeReply(resp *http.Response, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return json.Unmarshal(body, v)
}

// openLoopResult is what one open-loop window measured, indexed by
// request number.
type openLoopResult struct {
	// latMs is each request's latency from its due time, lateMs how long
	// after its due time it was sent.
	latMs, lateMs []float64
	err           []error
	elapsed       time.Duration
}

// runOpenLoop issues requests on a fixed schedule: request i is due at
// start + i/rate, for every due time inside the window. At most workers
// requests are in flight. A worker that is free early waits for the due
// time; one that is late sends at once. Either way the latency is timed
// from the due time, so when the system stalls, the wait is charged to
// every request that fell due during the stall — not only to the one
// that was in flight (coordinated omission).
func runOpenLoop(rate float64, window time.Duration, workers int, do func(i int) error) *openLoopResult {
	n := int(window.Seconds() * rate)
	res := &openLoopResult{latMs: make([]float64, n), lateMs: make([]float64, n), err: make([]error, n)}
	interval := float64(time.Second) / rate
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(float64(i) * interval))
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				res.err[i] = do(i)
				res.latMs[i] = float64(time.Since(due).Nanoseconds()) / 1e6
				res.lateMs[i] = float64(sent.Sub(due).Nanoseconds()) / 1e6
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}
