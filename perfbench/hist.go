package main

import "math/bits"

// histSubBits sets the histogram's resolution: each power-of-two range of
// nanoseconds is split into 1<<histSubBits linear buckets, so a quantile is
// off by at most 1/2048 of its value, and values below 1<<histSubBits ns
// are exact.
const histSubBits = 10

// hist is a log-linear latency histogram over non-negative nanoseconds.
// Its memory is fixed, however many ops are added to it.
// internal/loadgen has one too, but it is unexported and resolves only
// about 3%: percentiles in 3% steps would read the same run after run.
type hist struct {
	counts [(64 - histSubBits) << histSubBits]int64
	n      int64
	max    int64
}

func histBucket(v int64) int {
	u := uint64(max(v, 0))
	if u < 1<<histSubBits {
		return int(u)
	}
	shift := bits.Len64(u) - histSubBits - 1
	return shift<<histSubBits + int(u>>shift)
}

// histValue is the midpoint of a bucket.
func histValue(b int) int64 {
	if b < 1<<histSubBits {
		return int64(b)
	}
	shift := b>>histSubBits - 1
	return int64(b-shift<<histSubBits)<<shift + int64(1)<<shift/2
}

func (h *hist) add(v int64) {
	h.counts[histBucket(v)]++
	h.n++
	h.max = max(h.max, v)
}

// quantile is the q-quantile in nanoseconds (0 when empty); q = 1 is the
// exact maximum.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(q*float64(h.n)+0.5) - 1
	if rank >= h.n-1 {
		return float64(h.max)
	}
	var cum int64
	for b, c := range h.counts {
		if cum += c; cum > rank {
			return float64(min(histValue(b), h.max))
		}
	}
	return float64(h.max)
}
