package features

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"hydra/internal/linalg"
	"hydra/internal/platform"
	"hydra/internal/temporal"
	"hydra/internal/topic"
)

// The pre-summary window scan, kept here as the reference the summarized
// Pair must match bit for bit: per-pair chronological copies, a stepped
// scan through every window of the union span, and a set per media
// window.

type seedSensor interface {
	Match(a, b []temporal.Event, window time.Duration) []float64
}

type seedLocationSensor struct {
	SigmaKm float64
}

func (s seedLocationSensor) Match(a, b []temporal.Event, window time.Duration) []float64 {
	sigma := s.SigmaKm
	if sigma <= 0 {
		sigma = 5
	}
	return seedScanWindows(a, b, window, func(ea, eb []temporal.Event) float64 {
		best := 0.0
		for _, x := range ea {
			if x.MediaID != 0 {
				continue
			}
			for _, y := range eb {
				if y.MediaID != 0 {
					continue
				}
				d := temporal.HaversineKm(x.Lat, x.Lon, y.Lat, y.Lon)
				v := math.Exp(-d * d / (2 * sigma * sigma))
				if v > best {
					best = v
				}
			}
		}
		return best
	})
}

type seedMediaSensor struct{}

func (seedMediaSensor) Match(a, b []temporal.Event, window time.Duration) []float64 {
	return seedScanWindows(a, b, window, func(ea, eb []temporal.Event) float64 {
		seen := make(map[uint64]bool)
		hasA := false
		for _, x := range ea {
			if x.MediaID != 0 {
				seen[x.MediaID] = true
				hasA = true
			}
		}
		if !hasA {
			return -1 // no media on side A: window not applicable
		}
		hasB := false
		for _, y := range eb {
			if y.MediaID != 0 {
				hasB = true
				if seen[y.MediaID] {
					return 1
				}
			}
		}
		if !hasB {
			return -1
		}
		return 0
	})
}

func seedScanWindows(a, b []temporal.Event, window time.Duration, f func(ea, eb []temporal.Event) float64) []float64 {
	if len(a) == 0 || len(b) == 0 || window <= 0 {
		return nil
	}
	a = seedChronological(a)
	b = seedChronological(b)
	start := a[0].Time
	if b[0].Time.Before(start) {
		start = b[0].Time
	}
	end := a[len(a)-1].Time
	if b[len(b)-1].Time.After(end) {
		end = b[len(b)-1].Time
	}
	end = end.Add(time.Nanosecond) // make the last event inclusive

	var signals []float64
	ia, ib := 0, 0
	for t := start; t.Before(end); t = t.Add(window) {
		wEnd := t.Add(window)
		ea := seedSliceWindow(a, &ia, wEnd)
		eb := seedSliceWindow(b, &ib, wEnd)
		if len(ea) == 0 || len(eb) == 0 {
			continue
		}
		if v := f(ea, eb); v >= 0 {
			signals = append(signals, v)
		}
	}
	return signals
}

func seedChronological(evs []temporal.Event) []temporal.Event {
	sorted := true
	for i := 1; i < len(evs); i++ {
		if evs[i].Time.Before(evs[i-1].Time) {
			sorted = false
			break
		}
	}
	if sorted {
		return evs
	}
	cp := append([]temporal.Event(nil), evs...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Time.Before(cp[j].Time) })
	return cp
}

func seedSliceWindow(evs []temporal.Event, idx *int, wEnd time.Time) []temporal.Event {
	lo := *idx
	for *idx < len(evs) && evs[*idx].Time.Before(wEnd) {
		*idx++
	}
	return evs[lo:*idx]
}

func seedMultiResolutionMatch(sensors []seedSensor, cfg temporal.MultiResolutionConfig, a, b []temporal.Event) (linalg.Vector, []bool, error) {
	nw := len(cfg.WindowsDays)
	vec := linalg.NewVector(len(sensors) * nw)
	mask := make([]bool, len(sensors)*nw)
	for si, sensor := range sensors {
		for wi, days := range cfg.WindowsDays {
			window := time.Duration(days) * temporal.Day
			signals := sensor.Match(a, b, window)
			if len(signals) == 0 {
				continue
			}
			var pooled float64
			if cfg.MeanPooling {
				pooled = temporal.MeanPool(signals)
			} else {
				var err error
				pooled, err = temporal.LqPool(signals, cfg.Q)
				if err != nil {
					return nil, nil, err
				}
			}
			idx := si*nw + wi
			vec[idx] = temporal.Sigmoid(pooled, cfg.Lambda)
			mask[idx] = true
		}
	}
	return vec, mask, nil
}

// referenceMultiScale is the paper-literal Figure-5 path: aggregate each
// account into a DistSeries per scale, then average the per-bucket
// similarities. An aggregation error leaves the whole group missing, as
// Pair does.
func referenceMultiScale(p *Pipeline, ta []time.Time, da []linalg.Vector, tb []time.Time, db []linalg.Vector) (linalg.Vector, []bool) {
	n := len(p.cfg.ScalesDays)
	vec, mask := linalg.NewVector(n), make([]bool, n)
	for si, days := range p.cfg.ScalesDays {
		scale := time.Duration(days) * temporal.Day
		sa, err := temporal.AggregateDistributions(p.span, scale, ta, da)
		if err != nil {
			return linalg.NewVector(n), make([]bool, n)
		}
		sb, err := temporal.AggregateDistributions(p.span, scale, tb, db)
		if err != nil {
			return linalg.NewVector(n), make([]bool, n)
		}
		if v, _, ok := temporal.SeriesSimilarity(sa, sb, p.topicSim); ok {
			vec[si] = v
			mask[si] = true
		}
	}
	return vec, mask
}

// checkTemporalDims compares every multi-scale and multi-resolution
// dimension of p.Pair(a, b) with the reference paths, value bits and
// mask, and returns how many dimensions it compared.
func checkTemporalDims(t *testing.T, p *Pipeline, a, b *AccountView, label string) int {
	t.Helper()
	got := p.Pair(a, b)
	groups := p.FeatureGroups()
	first := func(g string) int {
		for i, gi := range groups {
			if gi == g {
				return i
			}
		}
		t.Fatalf("no %q group", g)
		return -1
	}
	type block struct {
		name string
		vec  linalg.Vector
		mask []bool
	}
	var blocks []block
	for _, g := range []struct {
		name   string
		da, db []linalg.Vector
	}{
		{"topic", a.TopicDists, b.TopicDists},
		{"genre", a.GenreDists, b.GenreDists},
		{"sentiment", a.SentDists, b.SentDists},
	} {
		v, m := referenceMultiScale(p, a.PostTimes, g.da, b.PostTimes, g.db)
		blocks = append(blocks, block{g.name, v, m})
	}
	sensors := []seedSensor{seedLocationSensor{SigmaKm: p.cfg.LocationSigmaKm}, seedMediaSensor{}}
	mr, mrMask, err := seedMultiResolutionMatch(sensors, p.cfg.MR, a.Acc.Events, b.Acc.Events)
	if err != nil {
		t.Fatal(err)
	}
	blocks = append(blocks, block{"mr", mr, mrMask})

	n := 0
	for _, blk := range blocks {
		off := first(blk.name)
		for i := range blk.vec {
			j := off + i
			if got.Mask[j] != blk.mask[i] || math.Float64bits(got.X[j]) != math.Float64bits(blk.vec[i]) {
				t.Fatalf("%s: %s = %v (observed %v), reference %v (observed %v)",
					label, p.FeatureNames()[j], got.X[j], got.Mask[j], blk.vec[i], blk.mask[i])
			}
			n++
		}
	}
	return n
}

// adversarialViews hand-builds views that stress the summary's edge
// cases: unsorted posts sharing coarse buckets, posts outside the span,
// equal timestamps, events on window edges, empty streams, and a view
// whose topic distributions do not line up with its post times.
func adversarialViews(p *Pipeline) []*AccountView {
	rng := rand.New(rand.NewSource(11))
	s, end := p.span.Start, p.span.End
	day := temporal.Day
	dist := func(n int) linalg.Vector {
		v := linalg.NewVector(n)
		var sum float64
		for i := range v {
			v[i] = rng.Float64()
			sum += v[i]
		}
		return v.Scale(1 / sum)
	}
	loc := func(t time.Time, lat, lon float64) temporal.Event {
		return temporal.Event{Time: t, Lat: lat, Lon: lon}
	}
	media := func(t time.Time, id uint64) temporal.Event {
		return temporal.Event{Time: t, MediaID: id}
	}
	local := 0
	mk := func(name string, times []time.Time, events []temporal.Event) *AccountView {
		local++
		v := &AccountView{
			Acc: &platform.Account{
				Platform: platform.Twitter,
				Local:    local,
				Person:   -1,
				Profile:  platform.Profile{Username: name, Attrs: map[platform.AttrName]string{}},
				Events:   events,
			},
			PostTimes: times,
		}
		for range times {
			v.TopicDists = append(v.TopicDists, dist(p.cfg.Topics))
			v.GenreDists = append(v.GenreDists, dist(len(topic.Genres)))
			v.SentDists = append(v.SentDists, dist(len(topic.Sentiments)))
		}
		return v
	}

	var out []*AccountView
	// Unsorted posts, four of them in the first 32-day bucket, with
	// distinct distributions: summing a bucket in time order instead of
	// index order changes the bits.
	out = append(out, mk("unsorted",
		[]time.Time{s.Add(20*day + 3*time.Hour), s.Add(2 * day), s.Add(9*day + time.Hour), s.Add(day), s.Add(40 * day), s.Add(33 * day)},
		[]temporal.Event{loc(s.Add(5*day), 40, 116), media(s.Add(day+time.Hour), 3), loc(s.Add(day), 40.01, 116.02), media(s.Add(3*day), 4)}))
	out = append(out, mk("unsorted-twin",
		[]time.Time{s.Add(31 * day), s.Add(3*day + 2*time.Hour), s.Add(30 * day), s.Add(12 * day), s.Add(2*day + time.Hour), s.Add(35 * day)},
		[]temporal.Event{media(s.Add(2*day), 3), loc(s.Add(day+5*time.Hour), 40.02, 116.01), media(s.Add(6*day), 9), loc(s.Add(4*day), 39.9, 116.3)}))
	// Posts outside the span, on its start instant and its exclusive end.
	out = append(out, mk("out-of-span",
		[]time.Time{s.Add(-time.Hour), s, end, end.Add(-time.Nanosecond), end.Add(day), s.Add(2 * day), s.Add(day)},
		[]temporal.Event{loc(s.Add(-3*day), 40, 116), loc(end.Add(2*day), 40, 116), media(s.Add(day), 3)}))
	// Equal timestamps for posts and events.
	eq := s.Add(4*day + 7*time.Hour)
	out = append(out, mk("equal-times",
		[]time.Time{eq, eq, eq, s.Add(day), eq},
		[]temporal.Event{loc(eq, 40, 116), media(eq, 3), loc(eq, 40.05, 116.05), media(eq, 4), media(eq, 3)}))
	// Events exactly on window edges: both edge views start at s, so every
	// s + k·day instant is a window boundary at every scale.
	out = append(out, mk("edge",
		[]time.Time{s.Add(day), s.Add(2 * day)},
		[]temporal.Event{loc(s, 40, 116), loc(s.Add(day), 40, 116), media(s.Add(2*day), 5), loc(s.Add(4*day), 40, 116),
			media(s.Add(8*day), 6), loc(s.Add(16*day), 40, 116), loc(s.Add(2*day-time.Nanosecond), 40, 116)}))
	out = append(out, mk("edge-twin",
		[]time.Time{s.Add(2 * day), s.Add(4 * day)},
		[]temporal.Event{media(s, 5), loc(s.Add(2*day), 40, 116), media(s.Add(2*day), 5), loc(s.Add(8*day), 40.01, 116),
			media(s.Add(16*day), 6), loc(s.Add(32*day), 40, 116), loc(s.Add(day-time.Nanosecond), 40, 116)}))
	// Empty streams.
	out = append(out, mk("no-posts", nil, []temporal.Event{loc(s.Add(day), 40, 116), media(s.Add(2*day), 3)}))
	out = append(out, mk("no-events", []time.Time{s.Add(day), s.Add(3 * day), s.Add(day)}, nil))
	out = append(out, mk("empty", nil, nil))
	// len(PostTimes) != len(TopicDists): the topic features stay missing.
	short := mk("short-topics", []time.Time{s.Add(day), s.Add(2 * day), s.Add(3 * day)},
		[]temporal.Event{loc(s.Add(day), 40, 116)})
	short.TopicDists = short.TopicDists[:2]
	out = append(out, short)
	return out
}

// synthViews builds every account view of a small synthetic world.
func synthViews(t testing.TB, persons int, seed int64) (*Pipeline, []*AccountView, []*AccountView) {
	t.Helper()
	w, p := worldAndPipeline(t, persons, seed)
	tw, _ := w.Dataset.Platform(platform.Twitter)
	fb, _ := w.Dataset.Platform(platform.Facebook)
	var vt, vf []*AccountView
	for _, acc := range tw.Accounts {
		vt = append(vt, p.BuildView(acc))
	}
	for _, acc := range fb.Accounts {
		vf = append(vf, p.BuildView(acc))
	}
	return p, vt, vf
}

// fresh returns a copy of v that shares its data but carries no summary.
func fresh(v *AccountView) *AccountView {
	return RestoreView(SnapshotView(v), v.Acc.Platform, v.Acc.Local)
}

func TestPairTemporalBitIdentical(t *testing.T) {
	p, vt, vf := synthViews(t, 30, 7)
	dims := 0
	for _, a := range vt {
		for _, b := range vf {
			dims += checkTemporalDims(t, p, a, b, a.Acc.Profile.Username+"/"+b.Acc.Profile.Username)
		}
	}
	adv := adversarialViews(p)
	others := append(append([]*AccountView(nil), adv...), vf[:5]...)
	for _, a := range adv {
		for _, b := range others {
			label := a.Acc.Profile.Username + "/" + b.Acc.Profile.Username
			dims += checkTemporalDims(t, p, a, b, label)
			dims += checkTemporalDims(t, p, b, a, label+" (swapped)")
		}
	}
	// The short view's topic block must be missing against everything.
	short := adv[len(adv)-1]
	off := -1
	for i, g := range p.FeatureGroups() {
		if g == "topic" {
			off = i
			break
		}
	}
	pv := p.Pair(short, adv[0])
	for i := range p.cfg.ScalesDays {
		if pv.Mask[off+i] || pv.X[off+i] != 0 {
			t.Fatalf("topic feature %d observed for a view with mismatched post times", i)
		}
	}
	t.Logf("compared %d temporal dimensions", dims)
}

// pairBits flattens a pair vector to its value bits and mask.
func pairBits(pv PairVector) ([]uint64, []bool) {
	bits := make([]uint64, len(pv.X))
	for i, x := range pv.X {
		bits[i] = math.Float64bits(x)
	}
	return bits, pv.Mask
}

func samePair(a, b PairVector) bool {
	ab, am := pairBits(a)
	bb, bm := pairBits(b)
	if len(ab) != len(bb) {
		return false
	}
	for i := range ab {
		if ab[i] != bb[i] || am[i] != bm[i] {
			return false
		}
	}
	return true
}

func TestPairConcurrentFirstTouch(t *testing.T) {
	p, vt, vf := synthViews(t, 16, 4)
	vt = append(vt, adversarialViews(p)...)
	want := make([][]PairVector, len(vt))
	for i, a := range vt {
		for _, b := range vf {
			want[i] = append(want[i], p.Pair(fresh(a), fresh(b)))
		}
	}
	// Fresh views shared by every goroutine: each one's summary is built
	// by whichever pair touches it first, possibly by several at once.
	ft := make([]*AccountView, len(vt))
	for i, v := range vt {
		ft[i] = fresh(v)
	}
	ff := make([]*AccountView, len(vf))
	for i, v := range vf {
		ff[i] = fresh(v)
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range ft {
				i := (k + w*3) % len(ft)
				for j := range ff {
					if !samePair(p.Pair(ft[i], ff[j]), want[i][j]) {
						errs <- ft[i].Acc.Profile.Username + "/" + ff[j].Acc.Profile.Username
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Errorf("concurrent pair %s differs from the serial pass", e)
	}
}

func TestPairSummaryKeyedToPipeline(t *testing.T) {
	p, vt, vf := synthViews(t, 12, 5)
	vt = append(vt, adversarialViews(p)...)
	coarseParts := p.Parts()
	coarseParts.Cfg.ScalesDays = []int{8}
	coarse, err := PipelineFromParts(coarseParts)
	if err != nil {
		t.Fatal(err)
	}
	shiftedParts := p.Parts()
	shiftedParts.Span = temporal.Range{
		Start: p.span.Start.Add(3*temporal.Day + 5*time.Hour),
		End:   p.span.End.Add(-2 * temporal.Day),
	}
	shifted, err := PipelineFromParts(shiftedParts)
	if err != nil {
		t.Fatal(err)
	}

	base := make([][]PairVector, len(vt))
	for i, a := range vt {
		for _, b := range vf {
			base[i] = append(base[i], p.Pair(a, b))
		}
	}
	// A second pair under the same pipeline reuses the cached summary.
	if s := vt[0].summary.Load(); s == nil || p.summary(vt[0]) != s {
		t.Fatal("summary not cached on the view")
	}
	for _, q := range []struct {
		name string
		p    *Pipeline
	}{{"coarse scales", coarse}, {"shifted span", shifted}} {
		for i, a := range vt {
			for j, b := range vf {
				// a and b hold summaries from another pipeline.
				if !samePair(q.p.Pair(a, b), q.p.Pair(fresh(a), fresh(b))) {
					t.Fatalf("%s: pair %d/%d reused another pipeline's summary", q.name, i, j)
				}
				// And back: the original pipeline must not see q's summary.
				if !samePair(p.Pair(a, b), base[i][j]) {
					t.Fatalf("%s: pair %d/%d changed under the original pipeline", q.name, i, j)
				}
			}
		}
	}
}

// BenchmarkPair measures one full Pair: cold pairs two views that have
// never been paired (both summaries are built inside the op), warm pairs
// views whose summaries are cached.
func BenchmarkPair(b *testing.B) {
	p, vt, vf := synthViews(b, 30, 1)
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			va, vb := fresh(vt[i%len(vt)]), fresh(vf[(i/len(vt))%len(vf)])
			b.StartTimer()
			p.Pair(va, vb)
		}
	})
	b.Run("warm", func(b *testing.B) {
		for _, a := range vt {
			for _, v := range vf {
				p.Pair(a, v)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Pair(vt[i%len(vt)], vf[(i/len(vt))%len(vf)])
		}
	})
}
