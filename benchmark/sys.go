package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runtimeStats is a reading of the process-wide runtime counters the
// end-to-end allocation metrics and the runtime.* layer metrics are
// differences of.
type runtimeStats struct {
	at              time.Time
	allocs, bytes   uint64
	gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeStats{
		at:       time.Now(),
		allocs:   s[0].Value.Uint64(),
		bytes:    s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		totalCPU: s[3].Value.Float64(),
	}
}

// runtimeDelta is what happened between two readings.
type runtimeDelta struct {
	secs          float64
	allocs, bytes uint64
	gcCPUFrac     float64
}

func (a runtimeStats) to(b runtimeStats) runtimeDelta {
	d := runtimeDelta{
		secs:   b.at.Sub(a.at).Seconds(),
		allocs: b.allocs - a.allocs,
		bytes:  b.bytes - a.bytes,
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		d.gcCPUFrac = (b.gcCPU - a.gcCPU) / cpu
	}
	return d
}

// allocCounter reads the heap allocation count alone, cheaply enough to
// bracket single layer calls in the traced run. Not safe for concurrent
// use.
type allocCounter struct{ s []metrics.Sample }

func newAllocCounter() *allocCounter {
	return &allocCounter{s: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (a *allocCounter) read() uint64 {
	metrics.Read(a.s)
	return a.s[0].Value.Uint64()
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: the runtime's own view of mapped memory is the closest
	// stand-in.
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// quantile is the q-quantile of xs by linear interpolation between
// order statistics; xs must be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
