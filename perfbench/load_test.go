package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopChargesStall runs the open loop against a stub server that
// stalls once for 300 ms: every request arriving during the stall waits
// until it ends. The wait must be charged to each request that fell due
// during the stall, not only to the two that were in flight.
func TestOpenLoopChargesStall(t *testing.T) {
	const (
		rate  = 200.0
		stall = 300 * time.Millisecond
	)
	var (
		mu         sync.Mutex
		stallUntil time.Time
		served     atomic.Int64
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if served.Add(1) == 50 {
			stallUntil = time.Now().Add(stall)
		}
		until := stallUntil
		mu.Unlock()
		time.Sleep(time.Until(until))
		w.Write([]byte("{}"))
	}))
	defer srv.Close()

	client := newLoadClient(2)
	res := runOpenLoop(rate, time.Second, 2, func(int) error {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return err
		}
		resp.Body.Close()
		return nil
	})
	slow := 0
	for i, l := range res.latMs {
		if res.err[i] != nil {
			t.Fatalf("request %d: %v", i, res.err[i])
		}
		if l >= float64(stall.Milliseconds())/2 {
			slow++
		}
	}
	// Requests fall due every 5 ms, so about 30 were due in the stall's
	// first half and each waited at least the other half. Coordinated
	// omission would leave only the two in-flight ones slow.
	if slow < 20 {
		t.Fatalf("only %d requests charged ≥ %v; the stall was not charged to the requests due during it", slow, stall/2)
	}
	late := percentile(append([]float64(nil), res.lateMs...), 0.99)
	if late < float64(stall.Milliseconds())/2 {
		t.Fatalf("late p99 %.1f ms does not show the generator falling behind during the stall", late)
	}
}
