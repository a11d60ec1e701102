package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"sort"
	"time"
)

// metricDef names one reported metric: its unit, which direction is
// better, and — for end-to-end metrics — the share of the baseline
// median by which it may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd are the user-visible metrics, measured in host time with
// probes off. failed_frac is not among them: it is zero on a healthy
// run, so it is reported as the result's "failed" count instead.
//
// The bounds on host times are what a shared 2-vCPU host sustains: runs
// of one seed minutes apart differ by up to a fifth as neighbours come
// and go, and quartile spreads over ten runs reach a tenth. Allocation
// counts and the live heap barely move with the seed.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", higher, 0.25},
	{"host_us_per_op_p50", "us", lower, 0.25},
	{"host_us_per_op_p90", "us", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.05},
	{"live_heap_mb", "MB", lower, 0.10},
}

// metric is one measured value as the result JSON carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what one workload run produces: the result, the failed
// correctness checks, and the digest of the simulated outputs.
type report struct {
	result
	Digest   string
	Problems []string
}

func newReport() *report {
	return &report{result: result{Correct: true, Metrics: map[string]metric{}}}
}

// set records one metric; the unit comes from its definition.
func (r *report) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("ullbench: undefined metric " + name)
}

// check records a failed correctness check when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// write prints the human-readable lines, then the result JSON as the
// last line.
func (r *report) write(w io.Writer, workload string, seed uint64, defs []metricDef) error {
	fmt.Fprintf(w, "workload %s seed %d attempted %d failed %d\n", workload, seed, r.Attempted, r.Failed)
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-40s %16.6g %s\n", d.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "  model_digest %s\n", r.Digest)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	b, err := json.Marshal(r.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// hostClock measures one phase of host work: wall time and heap
// allocations between start and stop.
type hostClock struct {
	t0      time.Time
	mallocs uint64
}

func startClock() hostClock {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return hostClock{t0: time.Now(), mallocs: ms.Mallocs}
}

// stop returns the elapsed wall time and the allocations made since start.
func (c hostClock) stop() (time.Duration, uint64) {
	d := time.Since(c.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return d, ms.Mallocs - c.mallocs
}

// liveHeapMB collects garbage and reports the live heap in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := p / 100 * float64(len(xs)-1)
	i := int(math.Floor(pos))
	if i >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(i)
	return xs[i]*(1-frac) + xs[i+1]*frac
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its
// default exclusive method, so spreads read the same as an external
// check computes them. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle value of xs (the mean of the middle two for
// an even count).
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// digest folds a sequence of printable values into an FNV-1a hash.
func digest(parts ...any) string {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%+v\n", p)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// mix derives an independent seed for sub-stream i of seed (splitmix64).
func mix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
