package main

import (
	"math/rand"
	"slices"
	"testing"
)

func TestHistQuantileWithinResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h hist
	xs := make([]int64, 100_000)
	for i := range xs {
		xs[i] = int64(rng.ExpFloat64() * 5_000)
		h.add(xs[i])
	}
	slices.Sort(xs)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := float64(xs[int(q*float64(len(xs))+0.5)-1])
		if got := h.quantile(q); got < exact*(1-1.0/1024) || got > exact*(1+1.0/1024) {
			t.Errorf("q%v = %v, exact %v", q, got, exact)
		}
	}
	if got := h.quantile(1); got != float64(xs[len(xs)-1]) {
		t.Errorf("max = %v, want %v", got, xs[len(xs)-1])
	}
}
