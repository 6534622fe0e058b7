package main

import (
	"math"
	"time"
)

// hist is a latency histogram with logarithmic buckets 0.5% wide, from
// 100ns to about a minute. It has a fixed size, so recording a latency
// allocates nothing and the benchmark's own memory does not grow with
// the number of operations.
type hist struct {
	counts [histBuckets]uint32
	n      int
	sum    time.Duration
}

const (
	histMinNS   = 100.0
	histGrowth  = 1.005
	histBuckets = 4096
)

var histLogGrowth = math.Log(histGrowth)

func (h *hist) add(d time.Duration) {
	b := 0
	if ns := float64(d); ns > histMinNS {
		b = min(int(math.Log(ns/histMinNS)/histLogGrowth), histBuckets-1)
	}
	h.counts[b]++
	h.n++
	h.sum += d
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// quantile returns the q-quantile in microseconds, interpolating by rank
// inside the bucket that holds it.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	seen := 0.0
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) > rank {
			lo := histMinNS * math.Pow(histGrowth, float64(b))
			frac := (rank - seen + 0.5) / float64(c)
			return (lo + lo*(histGrowth-1)*frac) / 1e3
		}
		seen += float64(c)
	}
	return histMinNS * math.Pow(histGrowth, histBuckets) / 1e3
}

// meanUS returns the mean latency in microseconds.
func (h *hist) meanUS() float64 {
	if h.n == 0 {
		return 0
	}
	return h.sum.Seconds() * 1e6 / float64(h.n)
}
