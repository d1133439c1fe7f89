package temporal

import (
	"fmt"
	"math"
	"slices"
	"time"

	"hydra/internal/linalg"
)

// Event is a timestamped behavioral observation fed to pattern-matching
// sensors: a location check-in (Lat/Lon set) or a media posting/sharing
// action (MediaID set).
type Event struct {
	Time    time.Time
	Lat     float64
	Lon     float64
	MediaID uint64 // content fingerprint; 0 when not a media event
}

// When implements Stamped.
func (e Event) When() time.Time { return e.Time }

// Sensor detects matched behavior patterns between two users' event streams
// within a temporal search window. The window scan itself is shared (see
// MultiResolutionMatch); a sensor only scores one window.
type Sensor interface {
	// Name identifies the sensor (one similarity-vector dimension each).
	Name() string
	// Stimulate returns the stimulation signal in [0,1] of one window,
	// given each user's events in it (both non-empty), or a negative
	// value when the window does not apply to this sensor.
	Stimulate(ea, eb []Event) float64
}

// LocationSensor is the paper's location matching sensor: "calculates
// location adjacency by a Gaussian kernel on geo-coordinates of user i and
// user i′ within the predefined spatial range".
type LocationSensor struct {
	// SigmaKm is the Gaussian bandwidth over great-circle distance in km.
	SigmaKm float64
}

// Name implements Sensor.
func (s LocationSensor) Name() string { return "location" }

// Stimulate implements Sensor: the maximum Gaussian location adjacency
// over all cross pairs of check-ins in the window.
func (s LocationSensor) Stimulate(ea, eb []Event) float64 {
	sigma := s.SigmaKm
	if sigma <= 0 {
		sigma = 5
	}
	best := 0.0
	for _, x := range ea {
		if x.MediaID != 0 {
			continue
		}
		for _, y := range eb {
			if y.MediaID != 0 {
				continue
			}
			d := HaversineKm(x.Lat, x.Lon, y.Lat, y.Lon)
			v := math.Exp(-d * d / (2 * sigma * sigma))
			if v > best {
				best = v
			}
		}
	}
	return best
}

// Match returns the per-window stimulation signals of two raw event
// streams at the given window: one per window where both users were
// active. The slice may be empty.
func (s LocationSensor) Match(a, b []Event, window time.Duration) []float64 {
	return matchRaw(s, a, b, window)
}

// MediaSensor is the near-duplicate multimedia sensor: two events match when
// their content fingerprints coincide (the fingerprint plays the role of the
// near-duplicate image detector / down-sampling method [9] in the paper).
type MediaSensor struct{}

// Name implements Sensor.
func (MediaSensor) Name() string { return "media" }

// Stimulate implements Sensor. The stimulation of a window is 1 if any
// media fingerprint is shared, else 0; windows where either side has no
// media events are not applicable. A window holds a handful of events, so
// the shared-fingerprint test scans side A directly rather than building
// a set.
func (MediaSensor) Stimulate(ea, eb []Event) float64 {
	hasA := false
	for _, x := range ea {
		if x.MediaID != 0 {
			hasA = true
			break
		}
	}
	if !hasA {
		return -1 // no media on side A: window not applicable
	}
	hasB := false
	for _, y := range eb {
		if y.MediaID == 0 {
			continue
		}
		hasB = true
		for _, x := range ea {
			if x.MediaID == y.MediaID {
				return 1
			}
		}
	}
	if !hasB {
		return -1
	}
	return 0
}

// Match returns the per-window stimulation signals of two raw event
// streams at the given window (see LocationSensor.Match).
func (s MediaSensor) Match(a, b []Event, window time.Duration) []float64 {
	return matchRaw(s, a, b, window)
}

// matchRaw runs one sensor over two raw event streams at one window.
func matchRaw(s Sensor, a, b []Event, window time.Duration) []float64 {
	sa, sb := NewEventStream(a), NewEventStream(b)
	return scanWindows(nil, &sa, &sb, window, s)
}

// EventStream is one account's pair-independent half of the Figure-6
// window scan: its events in chronological order, each with its offset
// from the first event in nanoseconds. Build it once per account with
// NewEventStream and treat it as read-only afterwards.
type EventStream struct {
	events []Event
	off    []int64
}

// NewEventStream orders evs chronologically — copying, never sorting the
// caller's slice in place, since event streams are shared across
// concurrent pair computations — and records each event's offset. Events
// are not generally stored in time order, so the copy is the common case;
// building the stream once per account keeps it off the per-pair path.
func NewEventStream(evs []Event) EventStream {
	if len(evs) == 0 {
		return EventStream{}
	}
	if !slices.IsSortedFunc(evs, compareEventTimes) {
		evs = slices.Clone(evs)
		slices.SortStableFunc(evs, compareEventTimes)
	}
	off := make([]int64, len(evs))
	for i := range evs {
		off[i] = int64(evs[i].Time.Sub(evs[0].Time))
	}
	return EventStream{events: evs, off: off}
}

func compareEventTimes(x, y Event) int { return x.Time.Compare(y.Time) }

// scanWindows slides a tumbling window from the earlier of the two
// streams' first events and evaluates s on the events of every window
// where both streams are active, appending the non-negative signals to
// dst. Windows where either side is empty, or where s returns a negative
// sentinel, produce no signal — that is the "missing information" the
// multi-resolution model is designed to tolerate.
//
// Offsets are int64 nanoseconds from the earlier first event, and the
// scan jumps straight to the window holding the next event instead of
// stepping through the empty ones; both are exact while the two streams
// lie within time.Duration's ±292 years of each other.
func scanWindows(dst []float64, a, b *EventStream, window time.Duration, s Sensor) []float64 {
	if len(a.events) == 0 || len(b.events) == 0 || window <= 0 {
		return dst
	}
	var baseA, baseB int64
	if d := int64(a.events[0].Time.Sub(b.events[0].Time)); d > 0 {
		baseA = d
	} else {
		baseB = -d
	}
	w := int64(window)
	ia, ib := 0, 0
	for ia < len(a.off) && ib < len(b.off) {
		end := (min(baseA+a.off[ia], baseB+b.off[ib])/w + 1) * w
		ja, jb := ia, ib
		for ja < len(a.off) && baseA+a.off[ja] < end {
			ja++
		}
		for jb < len(b.off) && baseB+b.off[jb] < end {
			jb++
		}
		if ja > ia && jb > ib {
			if v := s.Stimulate(a.events[ia:ja], b.events[ib:jb]); v >= 0 {
				dst = append(dst, v)
			}
		}
		ia, ib = ja, jb
	}
	return dst
}

// HaversineKm returns the great-circle distance between two lat/lon points
// in kilometers.
func HaversineKm(lat1, lon1, lat2, lon2 float64) float64 {
	const earthRadiusKm = 6371
	toRad := func(deg float64) float64 { return deg * math.Pi / 180 }
	dLat := toRad(lat2 - lat1)
	dLon := toRad(lon2 - lon1)
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(toRad(lat1))*math.Cos(toRad(lat2))*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// LqPool aggregates stimulation signals with the lq-norm pooling of Eqn 5:
// S = (1/N · Σ s_iᵠ)^(1/q). q → ∞ approaches max pooling; q must be ≥ 1.
func LqPool(signals []float64, q float64) (float64, error) {
	if q < 1 {
		return 0, fmt.Errorf("temporal: lq pooling requires q >= 1, got %g", q)
	}
	if len(signals) == 0 {
		return 0, nil
	}
	var acc float64
	for _, s := range signals {
		if s < 0 {
			return 0, fmt.Errorf("temporal: negative stimulation signal %g", s)
		}
		acc += math.Pow(s, q)
	}
	return math.Pow(acc/float64(len(signals)), 1/q), nil
}

// MeanPool is the ablation alternative to LqPool (plain averaging).
func MeanPool(signals []float64) float64 {
	if len(signals) == 0 {
		return 0
	}
	var acc float64
	for _, s := range signals {
		acc += s
	}
	return acc / float64(len(signals))
}

// Sigmoid is the nonlinear transformation Ŝ = 1/(1+e^{-λS}) of Section 5.4.
func Sigmoid(s, lambda float64) float64 {
	return 1 / (1 + math.Exp(-lambda*s))
}

// MultiResolutionConfig parameterizes the full Figure-6 pipeline.
type MultiResolutionConfig struct {
	// WindowsDays are the temporal search ranges of the sensor bank
	// ("Scale 1 … Scale 5" in Figure 6).
	WindowsDays []int
	// Q is the lq-pooling exponent (≥ 1).
	Q float64
	// Lambda is the sigmoid steepness.
	Lambda float64
	// MeanPooling switches to mean pooling (ablation).
	MeanPooling bool
}

// DefaultMultiResolutionConfig mirrors the paper's five temporal scales.
func DefaultMultiResolutionConfig() MultiResolutionConfig {
	return MultiResolutionConfig{WindowsDays: []int{1, 2, 4, 8, 16}, Q: 4, Lambda: 4}
}

// MultiResolutionMatch runs every sensor at every temporal window, pools the
// stimulation signals (Eqn 5), applies the sigmoid, and returns the
// multi-dimensional pattern-matching feature. mask[i] is false when sensor
// i produced no signal at window j (missing information).
//
// The output layout is sensor-major: [s0w0, s0w1, ..., s1w0, ...].
func MultiResolutionMatch(sensors []Sensor, cfg MultiResolutionConfig, a, b []Event) (linalg.Vector, []bool, error) {
	n := len(sensors) * len(cfg.WindowsDays)
	vec := linalg.NewVector(n)
	mask := make([]bool, n)
	sa, sb := NewEventStream(a), NewEventStream(b)
	if _, err := MatchStreams(vec, mask, sensors, cfg, &sa, &sb, nil); err != nil {
		return nil, nil, err
	}
	return vec, mask, nil
}

// MatchStreams is MultiResolutionMatch over two prepared streams. It
// writes only the observed entries of vec and mask (sensor-major, length
// len(sensors)·len(cfg.WindowsDays)), which must arrive zeroed. signals
// is scratch for one window's stimulation signals; the possibly grown
// buffer is returned for the next call.
func MatchStreams(vec linalg.Vector, mask []bool, sensors []Sensor, cfg MultiResolutionConfig,
	a, b *EventStream, signals []float64) ([]float64, error) {

	nw := len(cfg.WindowsDays)
	for si, sensor := range sensors {
		for wi, days := range cfg.WindowsDays {
			signals = scanWindows(signals[:0], a, b, time.Duration(days)*Day, sensor)
			if len(signals) == 0 {
				continue
			}
			var pooled float64
			if cfg.MeanPooling {
				pooled = MeanPool(signals)
			} else {
				var err error
				pooled, err = LqPool(signals, cfg.Q)
				if err != nil {
					return signals, err
				}
			}
			idx := si*nw + wi
			vec[idx] = Sigmoid(pooled, cfg.Lambda)
			mask[idx] = true
		}
	}
	return signals, nil
}
