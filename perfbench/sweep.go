package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hydra/internal/blocking"
	"hydra/internal/pipeline"
	"hydra/internal/platform"
	"hydra/internal/serve"
)

// sweep-8k: a tiled bundle of 4 000 accounts per platform (8 000 in all),
// each A-side account with about 64 candidates, tiled from a trained
// 60-person base and served by hydra-serve -mmap.
const (
	sweepBasePersons = 60
	sweepPerPlatform = 4000
	sweepCandsPerA   = 64
	sweepK           = 5
	sweepGateSample  = 40
	sweepReplayMax   = 120
	// sweepQueriesPerSecond sizes a run: --seconds × this many queries,
	// about --seconds of work at the 20 queries/s measured on 2 CPUs when
	// the benchmark was written. The work is fixed, not the time, so every
	// commit answers the same queries and a faster one does not touch
	// more of the bundle.
	sweepQueriesPerSecond = 20
)

type sweepState struct {
	tiled *pipeline.Bundle
	path  string
	serve *child
	f1    float64
}

// setupSweep trains the base, tiles it, saves the tiled bundle and starts
// hydra-serve -mmap over it.
func setupSweep(e *env, i int) (*sweepState, error) {
	t0 := time.Now()
	w, err := genWorld(sweepBasePersons, e.seed, e.workers)
	if err != nil {
		return nil, err
	}
	tr, err := trainWorld(w, e.seed, e.workers, "", nil)
	if err != nil {
		return nil, err
	}
	tiled, err := pipeline.TiledBundle(tr.bundle, sweepPerPlatform, sweepCandsPerA, uint64(e.seed))
	if err != nil {
		return nil, err
	}
	trainMs := msSince(t0)
	path := filepath.Join(e.dir, fmt.Sprintf("sweep-%d.bin", i))
	if err := pipeline.SaveBundle(path, tiled); err != nil {
		return nil, err
	}
	c, err := e.procs.start("hydra-serve", filepath.Join(e.binDir, "hydra-serve"), "-bundle", path, "-mmap")
	if err != nil {
		return nil, err
	}
	fmt.Printf("setup %d: world+train %.0f ms, tile+save+start %.0f ms\n", i, trainMs, msSince(t0)-trainMs)
	return &sweepState{tiled: tiled, path: path, serve: c, f1: tr.conf.F1()}, nil
}

// runSweep is the sweep-8k workload: 2 closed-loop clients walk a seeded
// sequence of distinct A-side accounts, so every query misses the pair
// cache.
func runSweep(e *env) (*report, error) {
	rep := newReport()
	var st *sweepState
	var setup []float64
	for i := 0; i < 3; i++ {
		if st != nil {
			e.procs.stop(st.serve)
		}
		t := time.Now()
		var err error
		if st, err = setupSweep(e, i); err != nil {
			return nil, err
		}
		setup = append(setup, msSince(t)/1e3)
	}
	rep.e2e["setup_s"] = stat{median(setup), len(setup)}
	pa, pb := string(platform.Twitter), string(platform.Facebook)

	seq := rand.New(rand.NewSource(e.seed)).Perm(sweepPerPlatform)
	seq = seq[:min(len(seq), int(e.window.Seconds())*sweepQueriesPerSecond)]
	before, err := st.serve.scrape()
	if err != nil {
		return nil, err
	}
	client := newLoadClient(e.ws.Clients)
	var (
		next    atomic.Int64
		mu      sync.Mutex
		lat     []float64
		answers = map[int][]serve.Scored{}
		failed  int
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < e.ws.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(seq) {
					return
				}
				t := time.Now()
				rows, err := getTopK(client, st.serve.url, pa, seq[i], pb, sweepK)
				ms := msSince(t)
				mu.Lock()
				if err != nil {
					fmt.Printf("FAILED: topk a=%d: %v\n", seq[i], err)
					failed++
				} else {
					lat = append(lat, ms)
					answers[seq[i]] = rows
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	after, err := st.serve.scrape()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(st.serve.pid())
	if err != nil {
		return nil, err
	}
	rep.attempted = len(lat) + failed
	rep.failed = failed

	wrong, checked, err := gateSweep(e, st.tiled, answers)
	if err != nil {
		return nil, err
	}
	rep.failed += wrong
	fmt.Printf("gate: %d of %d sampled accounts' served top-%d bit-identical to the heap engine\n", checked-wrong, checked, sweepK)

	openMs, opens, err := openMapped(st.path, e.workers)
	if err != nil {
		return nil, err
	}
	bundleMB, err := fileMB(st.path)
	if err != nil {
		return nil, err
	}
	n := len(lat)
	meanMs := sumOf(lat) / float64(max(n, 1))
	p50 := percentile(append([]float64(nil), lat...), 0.5)
	rps := float64(n) / elapsed.Seconds()
	show("rps", rps, "1/s", n)
	show("topk_p50_ms", p50, "ms", n)
	name, p := tail("topk", lat)
	show(name, p, "ms", n)
	show("open_ms", openMs, "ms", opens)
	show("serve_rss_mb", rss, "MiB", 1)
	rep.e2e["p50_ms"] = stat{p50, n}
	rep.e2e["rate_per_s"] = stat{rps, n}
	rep.e2e["f1"] = stat{st.f1, 1}
	rep.e2e["bundle_mb"] = stat{bundleMB, 1}
	rep.e2e["rss_mb"] = stat{rss, 1}

	// Server-side layers from the child's counter deltas.
	count, sumMs := endpointTime(before, after, "/topk")
	serverMs := sumMs / max(count, 1)
	set := func(name string, v float64, n int) { rep.layer[name] = stat{v, n} }
	set("serve.server_ms.topk", serverMs, int(count))
	set("http.hop_ms", meanMs-serverMs, n)
	set("pipeline.resident_views", delta(before, after, `hydra_bundle_resident{section="views",stat="resident"}`), 1)
	set("serve.prescreen_skipped_ratio", delta(before, after, "hydra_prescreen_skipped_total")/max(count, 1), int(count))
	hits := after.healthNum("impute", "pair_cache_hits") - before.healthNum("impute", "pair_cache_hits")
	misses := after.healthNum("impute", "pair_cache_misses") - before.healthNum("impute", "pair_cache_misses")
	set("core.pair_cache_misses_per_query", misses/max(count, 1), int(count))
	set("core.pair_cache_hit_ratio", hits/max(hits+misses, 1), int(hits+misses))
	fmt.Printf("server: /topk %.4g ms mean over %d, client mean %.4g ms\n", serverMs, int(count), meanMs)

	if e.trace {
		queried := make([]int, 0, len(answers))
		for i := 0; i < len(seq) && len(queried) < min(len(answers), sweepReplayMax); i++ {
			if _, ok := answers[seq[i]]; ok {
				queried = append(queried, seq[i])
			}
		}
		if err := traceSweep(e, rep, st.path, queried, meanMs); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// gateSweep compares a seeded sample of the served answers with an
// in-process heap engine over the same tiled bundle, bit for bit.
func gateSweep(e *env, tiled *pipeline.Bundle, answers map[int][]serve.Scored) (wrong, checked int, err error) {
	eng, err := serve.NewEngineFromBundle(tiled, e.workers)
	if err != nil {
		return 0, 0, err
	}
	accounts := make([]int, 0, len(answers))
	for a := range answers {
		accounts = append(accounts, a)
	}
	sort.Ints(accounts)
	rng := rand.New(rand.NewSource(e.seed + 1))
	rng.Shuffle(len(accounts), func(i, j int) { accounts[i], accounts[j] = accounts[j], accounts[i] })
	for _, a := range accounts[:min(len(accounts), sweepGateSample)] {
		want, err := eng.TopK(platform.Twitter, a, platform.Facebook, sweepK)
		if err != nil {
			return 0, 0, err
		}
		checked++
		if !bytes.Equal(scoredBits(want), scoredBits(answers[a])) {
			fmt.Printf("WRONG: top-%d of account %d differs from the heap engine\n", sweepK, a)
			wrong++
		}
	}
	return wrong, checked, nil
}

// sweepLayers is one query's per-layer self times in ms.
type sweepLayers struct {
	view, rawPair, impute, decision, rest float64
	cands                                 int
}

// traceSweep replays the queried accounts in process on a fresh mapped
// engine over the same file, with the same client count, timing each
// layer's public calls in turn: first view touches, raw pair features,
// Eqn-18 imputation, kernel decisions, and the rest of TopKAppend once
// those caches are warm.
func traceSweep(e *env, rep *report, path string, accounts []int, untracedMs float64) error {
	mb, err := pipeline.OpenBundleMapped(path, pipeline.MapOptions{})
	if err != nil {
		return err
	}
	eng, err := serve.NewEngineFromMapped(mb, 1)
	if err != nil {
		mb.Close()
		return err
	}
	defer eng.Close()
	ixs, err := mb.LazyIndexes()
	if err != nil {
		return err
	}
	ix := ixs[0]
	pa, pb := platform.Twitter, platform.Facebook
	rt0 := readRuntime()

	per := make([]sweepLayers, len(accounts))
	wall := make([]float64, len(accounts))
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, e.ws.Clients)
	for c := 0; c < e.ws.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var dst []serve.Scored
			for {
				i := int(next.Add(1) - 1)
				if i >= len(accounts) {
					return
				}
				t0 := time.Now()
				l, d, err := traceQuery(eng, mb, ix, pa, accounts[i], pb, dst)
				if err != nil {
					errs[c] = err
					return
				}
				dst = d
				per[i] = l
				wall[i] = msSince(t0)
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	rt1 := readRuntime()

	n := float64(len(accounts))
	var sum sweepLayers
	for _, l := range per {
		sum.view += l.view
		sum.rawPair += l.rawPair
		sum.impute += l.impute
		sum.decision += l.decision
		sum.rest += l.rest
		sum.cands += l.cands
	}
	set := func(name string, v float64) { rep.layer[name] = stat{v, len(accounts)} }
	set("blocking.candidates_per_query", float64(sum.cands)/n)
	set("pipeline.view_ms", sum.view/n)
	set("features.raw_pair_ms", sum.rawPair/n)
	set("core.impute_ms", sum.impute/n)
	set("kernel.decision_ms", sum.decision/n)
	set("serve.topk_rest_ms", sum.rest/n)
	set("runtime.gc_cpu_ratio", gcRatio(rt0, rt1))
	set("runtime.alloc_mb_per_query", (rt1.allocBytes-rt0.allocBytes)/(1<<20)/n)

	reconcile("top-k query", untracedMs, sumOf(wall)/n, []layerTime{
		{"pipeline.view_ms", sum.view / n},
		{"features.raw_pair_ms", sum.rawPair / n},
		{"core.impute_ms", sum.impute / n},
		{"kernel.decision_ms", sum.decision / n},
		{"serve.topk_rest_ms", sum.rest / n},
	})
	return nil
}

// traceQuery runs one traced top-k query.
func traceQuery(eng *serve.Engine, mb *pipeline.MappedBundle, ix *blocking.Index,
	pa platform.ID, a int, pb platform.ID, dst []serve.Scored) (sweepLayers, []serve.Scored, error) {
	var l sweepLayers
	cands, err := ix.Candidates(a)
	if err != nil {
		return l, dst, err
	}
	l.cands = len(cands)

	t := time.Now()
	if _, err := mb.View(pa, a); err != nil {
		return l, dst, err
	}
	for _, c := range cands {
		if _, err := mb.View(pb, c.B); err != nil {
			return l, dst, err
		}
	}
	l.view = msSince(t)

	t = time.Now()
	pairs := make([][2]int, len(cands))
	for i, c := range cands {
		pairs[i] = [2]int{a, c.B}
		if _, err := eng.Sys.RawPair(pa, a, pb, c.B); err != nil {
			return l, dst, err
		}
	}
	l.rawPair = msSince(t)

	t = time.Now()
	rows, err := eng.Model.ImputedPairRows(pa, pb, pairs, 1)
	if err != nil {
		return l, dst, err
	}
	l.impute = msSince(t)

	t = time.Now()
	for _, x := range rows {
		eng.Model.Decision(x)
	}
	l.decision = msSince(t)

	t = time.Now()
	dst, err = eng.TopKAppend(dst[:0], pa, a, pb, sweepK)
	l.rest = msSince(t)
	return l, dst, err
}
