package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"strings"
	"time"

	"hydra/internal/pipeline"
	"hydra/internal/platform"
	"hydra/internal/serve"
)

// interactive-routed: hydra-router over 2 shards × 2 replicas of
// hydra-serve, split from a trained 100-person bundle.
const (
	routedPersons  = 100
	routedShards   = 2
	routedReplicas = 2
	routedK        = 5
	routedBatch    = 16
)

// Request kinds of the interactive mix, drawn 6 : 3 : 1.
const (
	kindTopK = iota
	kindScore
	kindBatch
	numKinds
)

var kindNames = [numKinds]string{"topk", "score", "batch"}
var kindShare = [numKinds]float64{0.6, 0.3, 0.1}

type routedState struct {
	bundle *pipeline.Bundle
	desc   *pipeline.ShardDesc
	shards [][]*child // [shard][replica]
	router *child
	paths  []string
	f1     float64
}

func (st *routedState) children() []*child {
	out := []*child{st.router}
	for _, reps := range st.shards {
		out = append(out, reps...)
	}
	return out
}

// setupRouted trains the base, splits it, saves the shards, starts every
// replica and the router, and warms every replica's caches with one pass
// over every account.
func setupRouted(e *env, i int) (*routedState, error) {
	t0 := time.Now()
	w, err := genWorld(routedPersons, e.seed, e.workers)
	if err != nil {
		return nil, err
	}
	tr, err := trainWorld(w, e.seed, e.workers, "", nil)
	if err != nil {
		return nil, err
	}
	trainMs := msSince(t0)
	subs, err := pipeline.SplitBundle(tr.bundle, routedShards, uint64(e.seed), 1)
	if err != nil {
		return nil, err
	}
	st := &routedState{bundle: tr.bundle, desc: subs[0].Shard, f1: tr.conf.F1()}
	var groups []string
	for s, sb := range subs {
		path := filepath.Join(e.dir, fmt.Sprintf("routed-%d.shard%d.bin", i, s))
		if err := pipeline.SaveBundle(path, sb); err != nil {
			return nil, err
		}
		st.paths = append(st.paths, path)
		var reps []*child
		var urls []string
		for r := 0; r < routedReplicas; r++ {
			c, err := e.procs.start(fmt.Sprintf("hydra-serve shard %d replica %d", s, r),
				filepath.Join(e.binDir, "hydra-serve"), "-bundle", path)
			if err != nil {
				return nil, err
			}
			reps = append(reps, c)
			urls = append(urls, c.url)
		}
		st.shards = append(st.shards, reps)
		groups = append(groups, strings.Join(urls, "|"))
	}
	if st.router, err = e.procs.start("hydra-router", filepath.Join(e.binDir, "hydra-router"),
		"-shards", strings.Join(groups, ",")); err != nil {
		return nil, err
	}
	startMs := msSince(t0) - trainMs
	err = st.warm()
	fmt.Printf("setup %d: world+train %.0f ms, split+save+start %.0f ms, warm-up %.0f ms\n", i, trainMs, startMs, msSince(t0)-trainMs-startMs)
	return st, err
}

// warm sends every replica directly the top-k of every A-side account
// and the scores of every pair its shard owns, so the timed window runs
// on warm caches whichever replica the router picks.
func (st *routedState) warm() error {
	client := newLoadClient(1)
	pa, pb := string(platform.Twitter), string(platform.Facebook)
	na, nb := len(st.bundle.Views[platform.Twitter]), len(st.bundle.Views[platform.Facebook])
	for s, reps := range st.shards {
		var owned [][2]int
		for a := 0; a < na; a++ {
			for b := 0; b < nb; b++ {
				if st.desc.ShardOf(platform.Facebook, b) == s {
					owned = append(owned, [2]int{a, b})
				}
			}
		}
		for _, c := range reps {
			for a := 0; a < na; a++ {
				if _, err := getTopK(client, c.url, pa, a, pb, routedK); err != nil {
					return fmt.Errorf("warm %s: %w", c.name, err)
				}
			}
			for lo := 0; lo < len(owned); lo += 500 {
				if _, err := postScore(client, c.url, pa, pb, owned[lo:min(lo+500, len(owned))]); err != nil {
					return fmt.Errorf("warm %s: %w", c.name, err)
				}
			}
		}
	}
	return nil
}

// routedRequest is one request of the interactive mix.
type routedRequest struct {
	kind  int
	a     int
	pairs [][2]int // score and batch
}

// routedOracle holds the unsplit engine's answers: top-k of every A-side
// account and the score of every pair.
type routedOracle struct {
	topk   [][]byte
	scores [][]float64
}

func newRoutedOracle(b *pipeline.Bundle, workers int) (*routedOracle, error) {
	eng, err := serve.NewEngineFromBundle(b, workers)
	if err != nil {
		return nil, err
	}
	na, nb := len(b.Views[platform.Twitter]), len(b.Views[platform.Facebook])
	o := &routedOracle{}
	row := make([][2]int, nb)
	for a := 0; a < na; a++ {
		rows, err := eng.TopK(platform.Twitter, a, platform.Facebook, routedK)
		if err != nil {
			return nil, err
		}
		o.topk = append(o.topk, scoredBits(rows))
		for j := range row {
			row[j] = [2]int{a, j}
		}
		scores, err := eng.ScoreBatch(platform.Twitter, platform.Facebook, row)
		if err != nil {
			return nil, err
		}
		o.scores = append(o.scores, scores)
	}
	return o, nil
}

func (o *routedOracle) scoresMatch(pairs [][2]int, got []float64) bool {
	for i, p := range pairs {
		if math.Float64bits(o.scores[p[0]][p[1]]) != math.Float64bits(got[i]) {
			return false
		}
	}
	return true
}

// send issues one request through the router and checks its answer.
func (o *routedOracle) send(client *http.Client, url string, r routedRequest) error {
	pa, pb := string(platform.Twitter), string(platform.Facebook)
	if r.kind == kindTopK {
		rows, err := getTopK(client, url, pa, r.a, pb, routedK)
		if err != nil {
			return err
		}
		if !bytes.Equal(scoredBits(rows), o.topk[r.a]) {
			return errWrong
		}
		return nil
	}
	scores, err := postScore(client, url, pa, pb, r.pairs)
	if err != nil {
		return err
	}
	if !o.scoresMatch(r.pairs, scores) {
		return errWrong
	}
	return nil
}

var errWrong = fmt.Errorf("answer differs from the unsplit engine")

// routedRequests draws n requests of the mix from rng, leaving out kind
// drop when it is ≥ 0.
func routedRequests(rng *rand.Rand, n, na, nb, drop int) []routedRequest {
	out := make([]routedRequest, 0, n)
	for len(out) < n {
		k := kindTopK
		switch d := rng.Intn(10); {
		case d >= 9:
			k = kindBatch
		case d >= 6:
			k = kindScore
		}
		r := routedRequest{kind: k, a: rng.Intn(na)}
		switch k {
		case kindScore:
			r.pairs = [][2]int{{r.a, rng.Intn(nb)}}
		case kindBatch:
			for j := 0; j < routedBatch; j++ {
				r.pairs = append(r.pairs, [2]int{rng.Intn(na), rng.Intn(nb)})
			}
		}
		if k != drop {
			out = append(out, r)
		}
	}
	return out
}

// expectedShardCalls is how many shard calls a request needs without
// retries or hedges: top-k scatters to every shard, a score goes to each
// shard owning one of its pairs.
func (st *routedState) expectedShardCalls(r routedRequest) int {
	if r.kind == kindTopK {
		return routedShards
	}
	owners := map[int]bool{}
	for _, p := range r.pairs {
		owners[st.desc.ShardOf(platform.Facebook, p[1])] = true
	}
	return len(owners)
}

// windowResult is one open-loop window over the router with the
// counters of every child before and after.
type windowResult struct {
	reqs          []routedRequest
	loop          *openLoopResult
	before, after []*scrape
	failed, wrong int
}

func (st *routedState) window(o *routedOracle, client *http.Client, reqs []routedRequest, rate float64, d time.Duration, workers int) (*windowResult, error) {
	res := &windowResult{reqs: reqs}
	var err error
	if res.before, err = scrapeAll(st.children()); err != nil {
		return nil, err
	}
	res.loop = runOpenLoop(rate, d, workers, func(i int) error { return o.send(client, st.router.url, reqs[i]) })
	if res.after, err = scrapeAll(st.children()); err != nil {
		return nil, err
	}
	res.reqs = reqs[:len(res.loop.latMs)]
	for i, err := range res.loop.err {
		switch {
		case err == errWrong:
			res.wrong++
			fmt.Printf("WRONG: request %d (%s a=%d) differs from the unsplit engine\n", i, kindNames[reqs[i].kind], reqs[i].a)
		case err != nil:
			res.failed++
			if res.failed <= 5 {
				fmt.Printf("FAILED: request %d (%s): %v\n", i, kindNames[reqs[i].kind], err)
			}
		}
	}
	return res, nil
}

// latencies returns the latencies (from due time) of successful
// requests of one kind.
func (w *windowResult) latencies(kind int) []float64 {
	var out []float64
	for i, r := range w.reqs {
		if r.kind == kind && w.loop.err[i] == nil {
			out = append(out, w.loop.latMs[i])
		}
	}
	return out
}

// waits returns how long successful requests of one kind waited in the
// load generator between due time and send.
func (w *windowResult) waits(kind int) []float64 {
	var out []float64
	for i, r := range w.reqs {
		if r.kind == kind && w.loop.err[i] == nil {
			out = append(out, w.loop.lateMs[i])
		}
	}
	return out
}

// runRouted is the interactive-routed workload: an open loop at a fixed
// offered rate, about a quarter of the capacity measured when the
// benchmark was written (2 CPUs).
func runRouted(e *env) (*report, error) {
	rep := newReport()
	var st *routedState
	var setup []float64
	for i := 0; i < 3; i++ {
		if st != nil {
			for _, c := range st.children() {
				e.procs.stop(c)
			}
		}
		t := time.Now()
		var err error
		if st, err = setupRouted(e, i); err != nil {
			return nil, err
		}
		setup = append(setup, msSince(t)/1e3)
	}
	rep.e2e["setup_s"] = stat{median(setup), len(setup)}

	oracle, err := newRoutedOracle(st.bundle, e.workers)
	if err != nil {
		return nil, err
	}
	na, nb := len(st.bundle.Views[platform.Twitter]), len(st.bundle.Views[platform.Facebook])
	client := newLoadClient(e.ws.Clients)

	// Gate: every A-side account's routed top-k equals the unsplit
	// engine's.
	for a := 0; a < na; a++ {
		rep.attempted++
		if err := oracle.send(client, st.router.url, routedRequest{kind: kindTopK, a: a}); err != nil {
			fmt.Printf("WRONG: routed top-%d of account %d: %v\n", routedK, a, err)
			rep.failed++
		}
	}

	rng := rand.New(rand.NewSource(e.seed))
	rate := e.ws.OfferedRPS
	reqs := routedRequests(rng, int(rate*e.window.Seconds())+1, na, nb, -1)
	w, err := st.window(oracle, client, reqs, rate, e.window, e.ws.Clients)
	if err != nil {
		return nil, err
	}
	rep.attempted += len(w.reqs)
	rep.failed += w.failed + w.wrong

	var rss float64
	for _, c := range st.children() {
		r, err := peakRSSMB(c.pid())
		if err != nil {
			return nil, err
		}
		fmt.Printf("peak RSS %s: %.4f MiB\n", c.name, r)
		rss += r
	}
	bundleMB := 0.0
	for _, p := range st.paths {
		mb, err := fileMB(p)
		if err != nil {
			return nil, err
		}
		bundleMB += mb
	}
	openMs, opens, err := openMapped(st.paths[0], e.workers)
	if err != nil {
		return nil, err
	}

	var all []float64
	for i, l := range w.loop.latMs {
		if w.loop.err[i] == nil {
			all = append(all, l)
		}
	}
	completed := len(all)
	for k := 0; k < numKinds; k++ {
		lat := w.latencies(k)
		p50 := percentile(lat, 0.5)
		show(kindNames[k]+"_p50_ms", p50, "ms", len(lat))
		name, p := tail(kindNames[k], lat)
		show(name, p, "ms", len(lat))
	}
	late := percentile(append([]float64(nil), w.loop.lateMs...), 0.99)
	show("open_ms", openMs, "ms", opens)
	fmt.Printf("offered %.0f req/s, completed %.4f req/s, bench.late_p99_ms %.4f, children peak RSS %.4f MiB, shard bundles %.4f MiB, base f1 %.4f\n",
		rate, float64(completed)/w.loop.elapsed.Seconds(), late, rss, bundleMB, st.f1)

	rep.e2e["p50_ms"] = stat{percentile(all, 0.5), completed}
	rep.e2e["rate_per_s"] = stat{float64(completed) / w.loop.elapsed.Seconds(), completed}
	rep.e2e["f1"] = stat{st.f1, 1}
	rep.e2e["bundle_mb"] = stat{bundleMB, len(st.paths)}
	rep.e2e["rss_mb"] = stat{rss, len(st.children())}

	layersFromWindow(st, w, rep)
	rep.layer["bench.late_p99_ms"] = stat{late, len(w.loop.lateMs)}

	if e.trace {
		if err := traceRouted(e, st, oracle, client, w, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// layersFromWindow derives the robustness and cache layers from the
// counter deltas of one mixed window.
func layersFromWindow(st *routedState, w *windowResult, rep *report) {
	rb, ra := w.before[0], w.after[0]
	topkReqs, _ := endpointTime(rb, ra, "/topk")
	fired := delta(rb, ra, `hydra_hedge_total{outcome="fired"}`)
	won := delta(rb, ra, `hydra_hedge_total{outcome="won"}`)
	expected := 0
	for _, r := range w.reqs {
		expected += st.expectedShardCalls(r)
	}
	shardCalls := 0.0
	var hits, misses, tHits, tMisses, engaged, skipped float64
	for i := 1; i < len(w.after); i++ {
		b, a := w.before[i], w.after[i]
		for _, ep := range []string{"/topk", "/score"} {
			n, _ := endpointTime(b, a, ep)
			shardCalls += n
		}
		hits += a.healthNum("impute", "pair_cache_hits") - b.healthNum("impute", "pair_cache_hits")
		misses += a.healthNum("impute", "pair_cache_misses") - b.healthNum("impute", "pair_cache_misses")
		tHits += a.healthNum("impute", "table_hits") - b.healthNum("impute", "table_hits")
		tMisses += a.healthNum("impute", "table_misses") - b.healthNum("impute", "table_misses")
		engaged += delta(b, a, "hydra_prescreen_survivors_count")
		skipped += delta(b, a, "hydra_prescreen_skipped_total")
	}
	ratio := func(x, y float64) float64 {
		if y == 0 {
			return 0
		}
		return x / y
	}
	n := len(w.reqs)
	rep.layer["router.hedge_fired_per_req"] = stat{ratio(fired, topkReqs), int(topkReqs)}
	rep.layer["router.hedge_won_ratio"] = stat{ratio(won, fired), int(fired)}
	rep.layer["router.retries"] = stat{shardCalls - float64(expected) - fired, n}
	rep.layer["core.pair_cache_hit_ratio"] = stat{ratio(hits, hits+misses), int(hits + misses)}
	rep.layer["core.impute_table_hit_ratio"] = stat{ratio(tHits, tHits+tMisses), int(tHits + tMisses)}
	rep.layer["serve.prescreen_engaged_ratio"] = stat{ratio(engaged, engaged+skipped), int(engaged + skipped)}
	fmt.Printf("router: %d requests, %.0f shard calls (%d expected), hedges fired %.0f won %.0f\n",
		n, shardCalls, expected, fired, won)
}

// traceRouted splits each request kind's latency into the wait for a
// free connection in the load generator, the HTTP hop to the router, the
// router's scatter/merge and the shards' server time, from the counter
// deltas of two traced windows: the mix without batches, then the mix
// without single scores, each at its share of the offered rate. Single and batch scores share the /score endpoint, so
// only windows that leave one of them out can tell them apart.
func traceRouted(e *env, st *routedState, o *routedOracle, client *http.Client, mixed *windowResult, rep *report) error {
	na, nb := len(st.bundle.Views[platform.Twitter]), len(st.bundle.Views[platform.Facebook])
	rng := rand.New(rand.NewSource(e.seed + 7))
	d := e.window / 2
	// Per kind: client latencies, router and shard request counts and
	// summed server times.
	var (
		lat, wait [numKinds][]float64
		rn, rsum  [numKinds]float64
		sn, ssum  [numKinds]float64
	)
	for _, drop := range []int{kindBatch, kindScore} {
		rate := e.ws.OfferedRPS * (1 - kindShare[drop])
		reqs := routedRequests(rng, int(rate*d.Seconds())+1, na, nb, drop)
		w, err := st.window(o, client, reqs, rate, d, e.ws.Clients)
		if err != nil {
			return err
		}
		rep.attempted += len(w.reqs)
		rep.failed += w.failed + w.wrong
		scoreKind := kindScore + kindBatch - drop
		for _, k := range []int{kindTopK, scoreKind} {
			ep := "/topk"
			if k != kindTopK {
				ep = "/score"
			}
			n, sum := endpointTime(w.before[0], w.after[0], ep)
			rn[k] += n
			rsum[k] += sum
			for i := 1; i < len(w.after); i++ {
				n, sum := endpointTime(w.before[i], w.after[i], ep)
				sn[k] += n
				ssum[k] += sum
			}
			lat[k] = append(lat[k], w.latencies(k)...)
			wait[k] = append(wait[k], w.waits(k)...)
		}
	}
	for k := 0; k < numKinds; k++ {
		clientMs := sumOf(lat[k]) / float64(max(len(lat[k]), 1))
		waitMs := sumOf(wait[k]) / float64(max(len(wait[k]), 1))
		routerMs := rsum[k] / max(rn[k], 1)
		shardMs := ssum[k] / max(sn[k], 1)
		name := kindNames[k]
		rep.layer["router.server_ms."+name] = stat{routerMs, int(rn[k])}
		rep.layer["serve.server_ms."+name] = stat{shardMs, int(sn[k])}
		rep.layer["http.client_hop_ms."+name] = stat{clientMs - waitMs - routerMs, len(lat[k])}
		rep.layer["router.scatter_ms."+name] = stat{routerMs - shardMs, int(rn[k])}

		untraced := mixed.latencies(k)
		reconcile(name+" request", sumOf(untraced)/float64(max(len(untraced), 1)), clientMs, []layerTime{
			{"bench.wait_ms." + name, waitMs},
			{"http.client_hop_ms." + name, clientMs - waitMs - routerMs},
			{"router.scatter_ms." + name, routerMs - shardMs},
			{"serve.server_ms." + name, shardMs},
		})
	}
	return nil
}
