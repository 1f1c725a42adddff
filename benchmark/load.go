package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opRecord is one measured operation.
type opRecord struct {
	target int           // index into the workload's target list
	end    time.Duration // completion, since the phase started
	lat    time.Duration // latency; open loop: from when the op was due
	wait   time.Duration // open loop: how late the op was sent
	v      verdict
	err    error
}

// opFunc runs the k-th operation of a phase and reports which target it
// ran and what came back.
type opFunc func(k int) (target int, v verdict, err error)

// closedLoop runs op from clients() goroutines for dur: each client sends
// its next operation only after the previous one returned. Operations
// in flight at the deadline run to completion and are kept. capHint
// sizes each client's record buffer.
func closedLoop(dur time.Duration, capHint int, op opFunc) []opRecord {
	c := clients()
	var next atomic.Int64
	per := make([][]opRecord, c)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(c)
	for w := 0; w < c; w++ {
		go func() {
			defer wg.Done()
			out := make([]opRecord, 0, capHint)
			for {
				t0 := time.Now()
				if t0.Sub(start) >= dur {
					break
				}
				i, v, err := op(int(next.Add(1) - 1))
				t1 := time.Now()
				out = append(out, opRecord{target: i, end: t1.Sub(start), lat: t1.Sub(t0), v: v, err: err})
			}
			per[w] = out
		}()
	}
	wg.Wait()
	return merge(per)
}

// poissonSchedule draws the due times of an open-loop step: Poisson
// arrivals at rate per second over dur.
func poissonSchedule(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var due []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur {
			return due
		}
		due = append(due, d)
	}
}

// openLoop sends the k-th operation at due[k] over clients() connections,
// regardless of how earlier ones fare: an operation whose connections
// are all busy waits, and its latency counts from when it was due. It
// returns once every scheduled operation has completed.
func openLoop(due []time.Duration, op opFunc) []opRecord {
	c := clients()
	var next atomic.Int64
	per := make([][]opRecord, c)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(c)
	for w := 0; w < c; w++ {
		go func() {
			defer wg.Done()
			out := make([]opRecord, 0, len(due)/c+16)
			for {
				k := int(next.Add(1) - 1)
				if k >= len(due) {
					break
				}
				dueAt := start.Add(due[k])
				if d := time.Until(dueAt); d > 0 {
					time.Sleep(d)
				}
				sent := time.Now()
				i, v, err := op(k)
				t1 := time.Now()
				out = append(out, opRecord{target: i, end: t1.Sub(start), lat: t1.Sub(dueAt), wait: sent.Sub(dueAt), v: v, err: err})
			}
			per[w] = out
		}()
	}
	wg.Wait()
	return merge(per)
}

func merge(per [][]opRecord) []opRecord {
	var all []opRecord
	for _, p := range per {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].end < all[b].end })
	return all
}

// latencyStats summarizes a phase's records.
type latencyStats struct {
	p50, p99   float64 // ms
	throughput float64 // ops per second
	samples    int     // operations the statistics are taken over
}

// summarize reports a phase's latency and throughput over its quietest
// quarter. The phase is cut into one-second slices, the slices are
// ranked by their mean latency, and p50, p99 and throughput are taken
// over the pooled operations of the fastest quarter of the slices (at
// least one). The reason is the box: other tenants' load slows the
// detector's memory-bound work by up to ~1.8x for seconds at a time,
// and only ever slows it. Ten same-seed 20-second triage runs spread (IQR over
// median) 23% in the median slice's p50 but 6-8% in the fast quarter's,
// which is what the program's own cost decides.
func summarize(recs []opRecord, dur time.Duration) latencyStats {
	n := int(dur / time.Second)
	if n < 1 {
		n = 1
	}
	width := dur / time.Duration(n)
	slices := make([][]float64, n)
	for _, r := range recs {
		j := int(r.end / width)
		if j >= n {
			j = n - 1 // finished after the deadline: in flight when it passed
		}
		slices[j] = append(slices[j], ms(r.lat))
	}
	type slice struct {
		mean float64
		lats []float64
	}
	var ranked []slice
	for _, l := range slices {
		if len(l) > 0 {
			sum := 0.0
			for _, x := range l {
				sum += x
			}
			ranked = append(ranked, slice{sum / float64(len(l)), l})
		}
	}
	if len(ranked) == 0 {
		return latencyStats{}
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].mean < ranked[b].mean })
	k := (len(ranked) + 3) / 4
	var pooled []float64
	for _, s := range ranked[:k] {
		pooled = append(pooled, s.lats...)
	}
	pooled = sorted(pooled)
	return latencyStats{
		p50:        quantile(pooled, 0.5),
		p99:        quantile(pooled, 0.99),
		throughput: float64(len(pooled)) / (float64(k) * width.Seconds()),
		samples:    len(pooled),
	}
}
