package main

import (
	"sort"
	"time"
)

// tailRank returns the 1-based rank, among n sorted samples, of the
// reported tail latency: p99 (nearest rank) when at least ten samples
// lie beyond it, otherwise the highest rank that still has ten beyond.
func tailRank(n int) int {
	r := (n*99 + 99) / 100
	if n-r < 10 {
		r = n - 10
	}
	if r < 1 {
		r = 1
	}
	return r
}

// medianRank is the 1-based nearest-rank median of n samples.
func medianRank(n int) int { return (n + 1) / 2 }

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// medianDur sorts d in place and returns its median, 0 when empty.
func medianDur(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sortDurations(d)
	return d[medianRank(len(d))-1]
}

// medianFloat returns the median of v (mean of the middle pair when
// even), 0 when empty; v is sorted in place.
func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// quartiles returns the first quartile, median and third quartile of v
// the way Python's statistics.quantiles(v, n=4) does (exclusive method),
// so -compare's spreads read the same as the acceptance rule's. A single
// value is its own quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// windows is how many windows the timed phase is cut into.
const windows = 5

// windowed is the timed phase summarised as medians over its windows, so
// that a burst of interference from outside the process spoils one
// window and not the run.
type windowed struct {
	throughput     float64       // median window's verified responses per second
	p50, tail      time.Duration // medians of the windows' own p50 and tail
	tailPercentile float64       // the percentile tail is, in the median window
}

// windowStats orders the samples by completion, cuts them into windows
// of equal count (so a window's length, and with it its throughput, is
// measured rather than fixed) and takes the median over windows of each
// window's throughput, median latency and tail latency (tailRank within
// the window). It reorders samples.
func windowStats(samples []sample) windowed {
	sort.Slice(samples, func(i, j int) bool { return samples[i].end < samples[j].end })
	var rate, pct []float64
	var p50, tail []time.Duration
	var from time.Duration // the previous window's last completion
	for k := 0; k < windows; k++ {
		w := samples[k*len(samples)/windows : (k+1)*len(samples)/windows]
		if len(w) == 0 {
			continue
		}
		to := w[len(w)-1].end
		rate = append(rate, float64(len(w))/(to-from).Seconds())
		from = to
		lat := latencies(w)
		sortDurations(lat)
		r := tailRank(len(lat))
		p50 = append(p50, lat[medianRank(len(lat))-1])
		tail = append(tail, lat[r-1])
		pct = append(pct, 100*float64(r)/float64(len(lat)))
	}
	return windowed{medianFloat(rate), medianDur(p50), medianDur(tail), medianFloat(pct)}
}
