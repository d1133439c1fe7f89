package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"hydra/internal/blocking"
	"hydra/internal/core"
	"hydra/internal/features"
	"hydra/internal/metrics"
	"hydra/internal/pipeline"
	"hydra/internal/platform"
	"hydra/internal/serve"
	"hydra/internal/synth"
)

// genWorld generates an English (Twitter × Facebook) world.
func genWorld(persons int, seed int64, workers int) (*synth.World, error) {
	cfg := synth.DefaultConfig(persons, platform.EnglishPlatforms, seed)
	cfg.Workers = workers
	return synth.Generate(cfg)
}

// stageTimes holds one training pass's stage wall times in ms.
type stageTimes struct {
	systemize, block, fit, evaluate, pack, save float64
}

// trained is one training pass's output.
type trained struct {
	blocked *pipeline.BlockState
	fitted  *pipeline.FitState
	conf    metrics.Confusion
	bundle  *pipeline.Bundle
}

// trainWorld runs the training stages over a world with the recipe the
// cmd binaries use: the labeled half is persons 0..n/2-1, blocking uses
// the default rules, HYDRA-M the calibrated defaults. It packs the
// bundle and, when path is set, saves it there. st, when non-nil,
// receives the stage times.
func trainWorld(w *synth.World, seed int64, workers int, path string, st *stageTimes) (*trained, error) {
	var people []int
	for i := 0; i < len(w.Persons)/2; i++ {
		people = append(people, i)
	}
	if st == nil {
		st = &stageTimes{}
	}

	t := time.Now()
	sys, err := pipeline.Systemize(w.Dataset, pipeline.SystemizeOpts{
		LabelPA:      platform.Twitter,
		LabelPB:      platform.Facebook,
		LabelPersons: people,
		Lexicons:     features.Lexicons{Genre: w.Lexicons.Genre, Sentiment: w.Lexicons.Sentiment},
		FeatCfg:      features.DefaultConfig(seed),
	})
	if err != nil {
		return nil, fmt.Errorf("systemize: %w", err)
	}
	st.systemize = msSince(t)

	t = time.Now()
	rules := blocking.DefaultRules()
	rules.Workers = workers
	blocked, err := pipeline.Block(sys, pipeline.BlockOpts{
		Pairs: [][2]platform.ID{{platform.Twitter, platform.Facebook}},
		Rules: rules,
		Label: core.LabelOpts{LabelFraction: 0.3, NegPerPos: 2, UsePreMatched: true, Seed: seed},
	})
	if err != nil {
		return nil, fmt.Errorf("block: %w", err)
	}
	st.block = msSince(t)

	t = time.Now()
	cfg := core.DefaultConfig(seed)
	cfg.Workers = workers
	fitted, err := pipeline.Fit(blocked, cfg)
	if err != nil {
		return nil, fmt.Errorf("fit: %w", err)
	}
	st.fit = msSince(t)

	t = time.Now()
	evaled, err := pipeline.Evaluate(fitted, workers)
	if err != nil {
		return nil, fmt.Errorf("evaluate: %w", err)
	}
	st.evaluate = msSince(t)

	t = time.Now()
	b, err := fitted.Bundle(workers)
	if err != nil {
		return nil, fmt.Errorf("pack: %w", err)
	}
	st.pack = msSince(t)

	if path != "" {
		t = time.Now()
		if err := pipeline.SaveBundle(path, b); err != nil {
			return nil, fmt.Errorf("save: %w", err)
		}
		st.save = msSince(t)
	}
	return &trained{blocked: blocked, fitted: fitted, conf: evaled.Conf, bundle: b}, nil
}

// openMapped times OpenBundleMapped + NewEngineFromMapped + Close on a
// saved bundle for about a second (at least 20 times) and returns the
// median in ms and the number of opens.
func openMapped(path string, workers int) (float64, int, error) {
	var ms []float64
	start := time.Now()
	for len(ms) < 20 || time.Since(start) < time.Second {
		t := time.Now()
		mb, err := pipeline.OpenBundleMapped(path, pipeline.MapOptions{})
		if err != nil {
			return 0, 0, err
		}
		eng, err := serve.NewEngineFromMapped(mb, workers)
		if err != nil {
			mb.Close()
			return 0, 0, err
		}
		ms = append(ms, msSince(t))
		if err := eng.Close(); err != nil {
			return 0, 0, err
		}
	}
	return median(ms), len(ms), nil
}

// trainPassSeconds is about one train-200 pass as measured when the
// benchmark was written (2 CPUs).
const trainPassSeconds = 10

// runTrain is the train-200 workload: world generation is set-up, and
// the measured unit of work is one full training pass over that world.
func runTrain(e *env) (*report, error) {
	const persons = 200
	rep := newReport()
	var setup []float64
	var w *synth.World
	for i := 0; i < 21; i++ {
		t := time.Now()
		var err error
		if w, err = genWorld(persons, e.seed, e.workers); err != nil {
			return nil, err
		}
		setup = append(setup, msSince(t)/1e3)
	}
	rep.e2e["setup_s"] = stat{median(setup), len(setup)}
	path := filepath.Join(e.dir, "train.bin")

	// The work is fixed, not the time: --seconds / trainPassSeconds passes
	// (at least one), about --seconds of work on 2 CPUs.
	passCount := max(1, int(e.window.Seconds())/trainPassSeconds)
	var passes []float64
	var first *trained
	var firstSum [32]byte
	before := readRuntime()
	for len(passes) < passCount {
		t := time.Now()
		tr, err := trainWorld(w, e.seed, e.workers, path, nil)
		if err != nil {
			return nil, err
		}
		passes = append(passes, msSince(t))
		rep.attempted++
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(raw)
		if first == nil {
			first, firstSum = tr, sum
		} else if tr.conf != first.conf || sum != firstSum {
			fmt.Printf("WRONG: pass %d differs from pass 1 (confusion %+v vs %+v, bundle hash equal %v)\n",
				len(passes), tr.conf, first.conf, sum == firstSum)
			rep.failed++
		}
	}
	after := readRuntime()
	trainMs := median(passes)

	// The saved bundle must serve exactly what the in-memory bundle
	// serves: top-5 of every A-side account, mapped vs heap.
	wrong, err := checkSavedBundle(first.bundle, path, e.workers)
	if err != nil {
		return nil, err
	}
	rep.attempted++
	if wrong > 0 {
		fmt.Printf("WRONG: %d accounts' top-k differ between the saved (mapped) and in-memory bundles\n", wrong)
		rep.failed++
	}

	c := first.conf
	fmt.Printf("linkage: P=%.4f R=%.4f F1=%.4f (tp=%d fp=%d fn=%d)\n", c.Precision(), c.Recall(), c.F1(), c.TP, c.FP, c.FN)
	bundleMB, err := fileMB(path)
	if err != nil {
		return nil, err
	}
	openMs, opens, err := openMapped(path, e.workers)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	fmt.Printf("passes: %.6g ms\n", passes)
	show("train_s", trainMs/1e3, "s", len(passes))
	show("f1", c.F1(), "ratio", c.TP+c.FP+c.FN)
	show("bundle_mb", bundleMB, "MiB", 1)
	show("open_ms", openMs, "ms", opens)

	rep.e2e["p50_ms"] = stat{trainMs, len(passes)}
	rep.e2e["rate_per_s"] = stat{float64(len(passes)) / (sumOf(passes) / 1e3), len(passes)}
	rep.e2e["f1"] = stat{c.F1(), c.TP + c.FP + c.FN}
	rep.e2e["bundle_mb"] = stat{bundleMB, 1}
	rep.e2e["rss_mb"] = stat{rss, 1}

	if e.trace {
		if err := traceTrain(e, rep, w, trainMs, gcRatio(before, after)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// traceTrain runs one more pass with every stage timed, plus a timed
// impute-table build and the pipeline's counters.
func traceTrain(e *env, rep *report, w *synth.World, untracedMs, untracedGC float64) error {
	path := filepath.Join(e.dir, "train-traced.bin")
	var st stageTimes
	before := readRuntime()
	t := time.Now()
	tr, err := trainWorld(w, e.seed, e.workers, path, &st)
	if err != nil {
		return err
	}
	tracedMs := msSince(t)
	after := readRuntime()
	t = time.Now()
	if _, err := pipeline.BuildBundleImputeTable(tr.bundle, e.workers); err != nil {
		return err
	}
	tableMs := msSince(t)

	cands, kept, total := 0, 0, 0
	for _, s := range tr.blocked.Stats {
		cands += s.NumCandidates
		kept += s.TruePairsKept
		total += s.TruePairsTotal
	}
	model := tr.fitted.Linker.Model()
	set := func(name string, v float64) { rep.layer[name] = stat{v, 1} }
	set("pipeline.systemize_ms", st.systemize)
	set("pipeline.block_ms", st.block)
	set("pipeline.fit_ms", st.fit)
	set("pipeline.evaluate_ms", st.evaluate)
	set("pipeline.pack_ms", st.pack)
	set("pipeline.save_ms", st.save)
	set("core.impute_table_ms", tableMs)
	set("blocking.candidates", float64(cands))
	set("blocking.true_pairs_kept_ratio", float64(kept)/math.Max(float64(total), 1))
	set("core.smo_iters", float64(model.Diag.SMOIters))
	set("core.support_vectors", float64(model.NumSupport()))
	set("runtime.gc_cpu_ratio", gcRatio(before, after))
	fmt.Printf("untraced gc_cpu_ratio %.4f\n", untracedGC)

	// The impute-table build runs inside pack, so pack's self time
	// excludes it.
	reconcile("training pass", untracedMs, tracedMs, []layerTime{
		{"pipeline.systemize_ms", st.systemize},
		{"pipeline.block_ms", st.block},
		{"pipeline.fit_ms", st.fit},
		{"pipeline.evaluate_ms", st.evaluate},
		{"pipeline.pack_ms (self)", st.pack - tableMs},
		{"core.impute_table_ms", tableMs},
		{"pipeline.save_ms", st.save},
	})
	return nil
}

// checkSavedBundle compares top-5 of every A-side account between a
// heap engine over the in-memory bundle and a mapped engine over the
// saved file, bit for bit; it returns the number of differing accounts.
func checkSavedBundle(b *pipeline.Bundle, path string, workers int) (int, error) {
	heap, err := serve.NewEngineFromBundle(b, workers)
	if err != nil {
		return 0, err
	}
	mb, err := pipeline.OpenBundleMapped(path, pipeline.MapOptions{})
	if err != nil {
		return 0, err
	}
	mapped, err := serve.NewEngineFromMapped(mb, workers)
	if err != nil {
		mb.Close()
		return 0, err
	}
	defer mapped.Close()
	wrong := 0
	for _, pp := range heap.Pairs() {
		for a := 0; a < heap.NumAccounts(pp[0]); a++ {
			x, errX := heap.TopK(pp[0], a, pp[1], 5)
			y, errY := mapped.TopK(pp[0], a, pp[1], 5)
			if errX != nil || errY != nil || !bytes.Equal(scoredBits(x), scoredBits(y)) {
				wrong++
			}
		}
	}
	return wrong, nil
}

// scoredBits renders top-k rows with their exact float bits.
func scoredBits(rows []serve.Scored) []byte {
	var buf []byte
	for _, r := range rows {
		buf = strconv.AppendInt(buf, int64(r.B), 10)
		buf = append(buf, ':')
		buf = strconv.AppendUint(buf, math.Float64bits(r.Score), 16)
		buf = append(buf, ';')
	}
	return buf
}

func sumOf(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
