// Package temporal implements the time-axis machinery of HYDRA's behavior
// models: the multi-scale time-bucket division of Section 5.2 (Figure 5) and
// the multi-resolution pattern-matching sensor framework of Section 5.4
// (Figure 6), including lq-norm pooling and the sigmoid calibration.
package temporal

import (
	"fmt"
	"slices"
	"time"

	"hydra/internal/linalg"
)

// Day is the base unit of the paper's bucket scales.
const Day = 24 * time.Hour

// DefaultScalesDays are the bucket scales of Section 5.2: "we use 1, 2, 4,
// 8, 16 and 32 days in this paper to guarantee the optimal performance".
var DefaultScalesDays = []int{1, 2, 4, 8, 16, 32}

// Stamped is any event carrying a timestamp.
type Stamped interface {
	When() time.Time
}

// Range is a closed-open time interval [Start, End).
type Range struct {
	Start, End time.Time
}

// Valid reports whether the range is non-empty and well-ordered.
func (r Range) Valid() bool { return r.End.After(r.Start) }

// Duration returns End - Start.
func (r Range) Duration() time.Duration { return r.End.Sub(r.Start) }

// NumBuckets returns the number of buckets of the given scale covering r
// (the final partial bucket counts).
func (r Range) NumBuckets(scale time.Duration) int {
	if !r.Valid() || scale <= 0 {
		return 0
	}
	d := r.Duration()
	n := int(d / scale)
	if d%scale != 0 {
		n++
	}
	return n
}

// BucketOf returns the bucket index of t within r at the given scale, or
// -1 if t lies outside r.
func (r Range) BucketOf(t time.Time, scale time.Duration) int {
	if t.Before(r.Start) || !t.Before(r.End) {
		return -1
	}
	return int(t.Sub(r.Start) / scale)
}

// DistSeries is a sequence of per-bucket probability distributions at one
// temporal scale. Buckets with no events hold a nil vector ("missing"), not
// a zero distribution: HYDRA distinguishes absent behavior from observed
// neutral behavior.
type DistSeries struct {
	Scale   time.Duration
	Buckets []linalg.Vector
}

// AggregateDistributions groups the (timestamp, distribution) observations
// into buckets of the given scale over range r and averages the
// distributions within each bucket — the aggregation step of Figure 5.
func AggregateDistributions(r Range, scale time.Duration, times []time.Time, dists []linalg.Vector) (DistSeries, error) {
	if len(times) != len(dists) {
		return DistSeries{}, fmt.Errorf("temporal: %d times but %d distributions", len(times), len(dists))
	}
	n := r.NumBuckets(scale)
	out := DistSeries{Scale: scale, Buckets: make([]linalg.Vector, n)}
	counts := make([]int, n)
	for i, t := range times {
		b := r.BucketOf(t, scale)
		if b < 0 {
			continue
		}
		if out.Buckets[b] == nil {
			out.Buckets[b] = linalg.NewVector(len(dists[i]))
		}
		out.Buckets[b].AddScaled(1, dists[i])
		counts[b]++
	}
	for b, c := range counts {
		if c > 0 {
			out.Buckets[b].Scale(1 / float64(c))
		}
	}
	return out, nil
}

// Similarity is a pairwise similarity between two distributions (e.g. a
// chi-square or histogram-intersection kernel evaluation).
type Similarity func(a, b linalg.Vector) float64

// SeriesSimilarity computes the average per-bucket similarity between two
// DistSeries of the same scale — "the similarity of topic evolution of a
// specific scale between two users can be simply calculated by averaging
// over the similarities of all temporal intervals" (Section 5.2).
//
// The second return value is the fraction of buckets where both users had
// observations; if no bucket overlaps, ok is false and callers must treat
// the feature as missing.
func SeriesSimilarity(a, b DistSeries, sim Similarity) (value float64, coverage float64, ok bool) {
	n := len(a.Buckets)
	if len(b.Buckets) < n {
		n = len(b.Buckets)
	}
	if n == 0 {
		return 0, 0, false
	}
	var total float64
	matched := 0
	for i := 0; i < n; i++ {
		if a.Buckets[i] == nil || b.Buckets[i] == nil {
			continue
		}
		total += sim(a.Buckets[i], b.Buckets[i])
		matched++
	}
	if matched == 0 {
		return 0, 0, false
	}
	return total / float64(matched), float64(matched) / float64(n), true
}

// PostBuckets is one account's pair-independent multi-scale state over a
// range: for each configured scale, the account's in-range observations
// sorted by bucket, index order within a bucket. Two accounts'
// PostBuckets merge into the Figure-5 similarity vector (MergeSimilarity)
// without materializing either DistSeries, so an account is bucketed once
// however many pairs it takes part in. Treat it as read-only once built.
type PostBuckets struct {
	// n is the observation count, checked against every distribution
	// slice merged over these buckets.
	n int
	// scales[s] packs each in-range observation at scale s as
	// bucket<<32 | index, sorted ascending: bucket ids non-decreasing,
	// indices ascending within a bucket.
	scales [][]uint64
}

// NewPostBuckets buckets the observation times at every scale in
// scalesDays over range r. Times outside r are dropped, as in
// AggregateDistributions.
func NewPostBuckets(r Range, scalesDays []int, times []time.Time) PostBuckets {
	pb := PostBuckets{n: len(times), scales: make([][]uint64, len(scalesDays))}
	in := 0
	for _, t := range times {
		if !t.Before(r.Start) && t.Before(r.End) {
			in++
		}
	}
	if in == 0 {
		return pb
	}
	keys := make([]uint64, 0, in*len(scalesDays))
	for si, days := range scalesDays {
		scale := time.Duration(days) * Day
		if scale <= 0 {
			continue
		}
		lo := len(keys)
		for i, t := range times {
			if b := r.BucketOf(t, scale); b >= 0 {
				keys = append(keys, uint64(b)<<32|uint64(i))
			}
		}
		slices.Sort(keys[lo:])
		pb.scales[si] = keys[lo:len(keys):len(keys)]
	}
	return pb
}

// BucketScratch holds the two bucket-mean buffers MergeSimilarity reuses
// from bucket to bucket. The zero value is ready to use; a scratch must
// not be shared by concurrent merges.
type BucketScratch struct {
	a, b linalg.Vector
}

// MergeSimilarity writes the per-scale series similarity of two accounts
// into vec and mask (one entry per scale), merging their PostBuckets —
// both built over the same range and scales — instead of aggregating two
// DistSeries per scale. Only observed entries are written; vec and mask
// must arrive zeroed.
//
// The result is bit-identical to AggregateDistributions followed by
// SeriesSimilarity: each shared bucket's mean is accumulated with
// AddScaled in observation-index order and then scaled by 1/c, and the
// matched buckets are summed in ascending bucket order.
func MergeSimilarity(vec linalg.Vector, mask []bool, a *PostBuckets, distsA []linalg.Vector,
	b *PostBuckets, distsB []linalg.Vector, sim Similarity, scratch *BucketScratch) error {

	if a.n != len(distsA) {
		return fmt.Errorf("temporal: %d times but %d distributions", a.n, len(distsA))
	}
	if b.n != len(distsB) {
		return fmt.Errorf("temporal: %d times but %d distributions", b.n, len(distsB))
	}
	for si := range a.scales {
		ka, kb := a.scales[si], b.scales[si]
		var total float64
		matched := 0
		for len(ka) > 0 && len(kb) > 0 {
			ba, bb := ka[0]>>32, kb[0]>>32
			na, nb := bucketRun(ka), bucketRun(kb)
			if ba == bb {
				total += sim(bucketMean(&scratch.a, distsA, ka[:na]), bucketMean(&scratch.b, distsB, kb[:nb]))
				matched++
			}
			if ba <= bb {
				ka = ka[na:]
			}
			if bb <= ba {
				kb = kb[nb:]
			}
		}
		if matched > 0 {
			vec[si] = total / float64(matched)
			mask[si] = true
		}
	}
	return nil
}

// bucketRun returns how many leading keys share the first key's bucket.
func bucketRun(keys []uint64) int {
	n := 1
	for n < len(keys) && keys[n]>>32 == keys[0]>>32 {
		n++
	}
	return n
}

// bucketMean averages one bucket's distributions into *buf exactly as
// AggregateDistributions does: a zeroed vector sized like the lowest-
// index observation, AddScaled in index order, then Scale(1/c).
func bucketMean(buf *linalg.Vector, dists []linalg.Vector, keys []uint64) linalg.Vector {
	n := len(dists[uint32(keys[0])])
	if cap(*buf) < n {
		*buf = linalg.NewVector(n)
	}
	m := (*buf)[:n]
	clear(m)
	for _, k := range keys {
		m.AddScaled(1, dists[uint32(k)])
	}
	return m.Scale(1 / float64(len(keys)))
}

// MultiScaleSimilarity evaluates SeriesSimilarity at every scale in
// scalesDays and concatenates the results into a similarity vector — "all
// the similarities calculated using different time scales are concatenated
// into a similarity vector". The returned mask marks which entries are
// observed (true) versus missing (false). It buckets both accounts with
// NewPostBuckets and merges them; AggregateDistributions followed by
// SeriesSimilarity is the literal per-scale reference it matches bit for
// bit.
func MultiScaleSimilarity(r Range, scalesDays []int, timesA []time.Time, distsA []linalg.Vector,
	timesB []time.Time, distsB []linalg.Vector, sim Similarity) (vec linalg.Vector, mask []bool, err error) {

	a := NewPostBuckets(r, scalesDays, timesA)
	b := NewPostBuckets(r, scalesDays, timesB)
	vec = linalg.NewVector(len(scalesDays))
	mask = make([]bool, len(scalesDays))
	if err := MergeSimilarity(vec, mask, &a, distsA, &b, distsB, sim, new(BucketScratch)); err != nil {
		return nil, nil, err
	}
	return vec, mask, nil
}
