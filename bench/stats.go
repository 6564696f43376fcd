package main

import (
	"math/bits"
	"sort"
	"time"
)

// epoch anchors every timestamp the benchmark takes: nowNS is a
// monotonic reading, so spans recorded on different goroutines (and on
// both "nodes" of a cluster workload, which share this process) sit on
// one clock.
var epoch = time.Now()

func nowNS() int64 { return int64(time.Since(epoch)) }

// rng is splitmix64: the benchmark's only randomness, so one -seed
// fixes every generated input. It is the benchmark's own copy on
// purpose — inputs must not change when the repo's RNGs do.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	return mix(r.s)
}

// float returns a uniform value in (0, 1].
func (r *rng) float() float64 { return float64(r.next()>>11+1) / (1 << 53) }

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// hist is a log-linear latency histogram over nanoseconds: 128
// sub-buckets per power of two (under 1% bucket width), so recording
// is two shifts and an increment and the timed loop never allocates or
// sorts. Not safe for concurrent use — each client owns its own and
// they merge after the window.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    int64
}

const (
	histSub     = 128
	histBuckets = 36 * histSub // values up to 2^42 ns (over an hour)
)

func histIndex(v int64) int {
	if v < histSub {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 8 // v>>e lands in [128, 256)
	i := (e+1)*histSub + int(v>>uint(e)) - histSub
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histBounds returns bucket i's lower bound and width.
func histBounds(i int) (lo, width int64) {
	if i < histSub {
		return int64(i), 1
	}
	e := uint(i/histSub - 1)
	return int64(histSub+i%histSub) << e, 1 << e
}

func (h *hist) record(v int64) {
	h.counts[histIndex(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds, interpolated inside
// the bucket the rank falls in, so the reading is continuous rather
// than one of a few hundred bucket edges.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= target {
			lo, width := histBounds(i)
			return float64(lo) + float64(width)*(target-cum)/float64(c)
		}
		cum += float64(c)
	}
	return float64(h.max)
}

// quantileOf is the exact quantile of a small sample (linear
// interpolation between order statistics). xs is sorted in place.
func quantileOf(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	return xs[i] + (xs[i+1]-xs[i])*(pos-float64(i))
}

func median(xs []float64) float64 { return quantileOf(append([]float64(nil), xs...), 0.5) }

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is how the driver judges spread; fewer than two values have no
// spread and return the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}
