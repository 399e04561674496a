package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// workload is one closed-loop load over a set-up environment. Ops
// are numbered globally and grouped in rounds of roundLen; between
// rounds the clock stops, so endRound/startRound work (tearing down
// a pass's warehouse, checking its index) is never charged to ops.
type workload struct {
	clients  int
	roundLen int
	// startRound prepares round r (untimed).
	startRound func(r int) error
	// op runs op i on client c. It returns an error when the op
	// failed or its output check did.
	op func(c, i int, t *tracer) error
	// endRound checks a round whose first done ops ran (untimed) and
	// returns how many of them failed that check.
	endRound func(r, done int) (int, error)
	// warm is the number of warm-up ops set-up runs through the
	// rounds before timing (0: the workload warms up on its own).
	warm int
	// begin marks the start of the timed window (nil: nothing to
	// mark).
	begin func()
	// layers computes the per-layer metrics over the window.
	layers func(w *window) map[string]float64
	close  func()
}

// sample is one op's outcome.
type sample struct {
	ns     int64
	failed bool
	traced bool
}

// window is what one timed window measured. The clock runs only
// while a round's ops do, so active, cpu and allocB cover op time
// alone.
type window struct {
	samples   []sample
	failed    int // ops failed, by the op itself or a round check
	active    time.Duration
	cpu       time.Duration
	allocB    uint64
	allocObjs uint64
	peak      uint64 // largest HeapInuse sampled
	// roundPeaks is each round's largest HeapInuse.
	roundPeaks []float64
	spans      []span
	traced     int // ops run with tracing on
}

// traceBlock is the number of consecutive ops that share a tracing
// state in a traced run. Blocks alternate from the start of every
// round, traced first in the window's even rounds and untraced first
// in its odd ones, so both halves see the same load and drift, and a
// round's first op (a triage round's upload) falls in each half
// equally often; each round visits the inputs in its own seeded
// order, so both see the same input mix.
const traceBlock = 8

// measure drives w from round first on for d wall seconds of op time,
// or until limit ops ran (0: no limit), and returns the next round.
func measure(w *workload, d time.Duration, traced bool, first, limit int) (*window, int, error) {
	win := &window{}
	deadline := time.Now().Add(d)
	r := first
	for ; time.Now().Before(deadline) && (limit == 0 || len(win.samples) < limit); r++ {
		if err := w.startRound(r); err != nil {
			return nil, r, err
		}
		end := (r + 1) * w.roundLen
		if limit > 0 {
			end = min(end, r*w.roundLen+limit)
		}
		if err := runRound(w, win, r, r-first, end, deadline, traced); err != nil {
			return nil, r, err
		}
	}
	for _, s := range win.samples {
		if s.traced {
			win.traced++
		}
	}
	return win, r, nil
}

// runRound runs round r, the window's k-th, up to op end or the
// deadline, on the workload's clients, checks the round, and adds it
// to win.
func runRound(w *workload, win *window, r, k, end int, deadline time.Time, traced bool) error {
	base := r * w.roundLen
	var next atomic.Int64
	var peak atomic.Uint64
	next.Store(int64(base))
	stopSampling := sampleHeap(&peak)
	cpu0, mem0 := cpuTime(), readMem()
	t0 := time.Now()
	results := make([][]sample, w.clients)
	spans := make([][]span, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tracer{}
			for {
				i := int(next.Add(1) - 1)
				if i >= end || !time.Now().Before(deadline) {
					break
				}
				t.on = traced && ((i-base)/traceBlock+k)%2 == 0
				t.op = i
				t.root = t.begin("op", -1)
				st := time.Now()
				err := w.op(c, i, t)
				t.end(t.root)
				results[c] = append(results[c], sample{ns: time.Since(st).Nanoseconds(), failed: err != nil, traced: t.on})
				if err != nil {
					logf("op %d failed: %v", i, err)
				}
				raise(&peak, heapInuse())
			}
			spans[c] = t.spans
		}(c)
	}
	wg.Wait()
	win.active += time.Since(t0)
	win.cpu += cpuTime() - cpu0
	mem1 := readMem()
	stopSampling()
	win.peak = max(win.peak, peak.Load())
	win.roundPeaks = append(win.roundPeaks, float64(peak.Load()))
	win.allocB += mem1.bytes - mem0.bytes
	win.allocObjs += mem1.objs - mem0.objs

	var round []sample
	failed := 0
	for c := range results {
		round = append(round, results[c]...)
		win.spans = append(win.spans, spans[c]...)
	}
	for _, s := range round {
		if s.failed {
			failed++
		}
	}
	bad, err := w.endRound(r, len(round))
	if err != nil {
		return err
	}
	win.samples = append(win.samples, round...)
	win.failed += min(len(round), failed+bad)
	return nil
}

// sampleHeap raises peak to HeapInuse every millisecond until the
// returned stop function is called; stop waits for the sampler.
func sampleHeap(peak *atomic.Uint64) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				raise(peak, heapInuse())
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// raise sets a to max(a, v).
func raise(a *atomic.Uint64, v uint64) {
	for {
		old := a.Load()
		if v <= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// endToEnd computes the untraced run's user-facing metrics over the
// whole timed window: per-op figures divide by the ops that completed
// and passed their checks, and latency quantiles are over every op.
// The heap figure is the median over rounds of each round's peak. The
// window's single largest HeapInuse (w.peak, in the environment block
// and the traced run's metrics) hangs on GC timing: with diagnose's
// live heap of a few MB the GC runs every few milliseconds, and that
// maximum spread 0.29 over ten seeds.
func endToEnd(w *window, setup float64) map[string]float64 {
	ops := float64(max(len(w.samples)-w.failed, 1))
	lat := latencies(w.samples)
	return map[string]float64{
		"setup_s":            setup,
		"ops_per_s":          ops / w.active.Seconds(),
		"latency_p50_ms":     quantile(lat, 0.50) / 1e6,
		"latency_p90_ms":     quantile(lat, 0.90) / 1e6,
		"cpu_ms_per_op":      ms(w.cpu) / ops,
		"alloc_mb_per_op":    float64(w.allocB) / (1 << 20) / ops,
		"round_peak_heap_mb": median(w.roundPeaks) / (1 << 20),
	}
}

// latencies returns the samples' latencies, sorted, with a failed op
// counted as slower than any limit.
func latencies(ss []sample) []float64 {
	var out []float64
	for _, s := range ss {
		if s.failed {
			out = append(out, math.Inf(1))
		} else {
			out = append(out, float64(s.ns))
		}
	}
	sort.Float64s(out)
	return out
}

// quantile is the nearest-rank quantile of sorted xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type memCounts struct{ bytes, objs uint64 }

// readMem reads the cumulative heap allocation counters (the
// runtime/metrics forms of MemStats.TotalAlloc and Mallocs, which
// read without stopping the world).
func readMem() memCounts {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return memCounts{s[0].Value.Uint64(), s[1].Value.Uint64()}
}

// heapInuse is MemStats.HeapInuse: heap spans holding objects, their
// free slots included.
func heapInuse() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

// span is one timed call into a layer. Spans of one op share the op
// number; parent is the id of the enclosing span (-1 for the op).
type span struct {
	op, id, parent int
	name           string
	start, end     int64
}

// tracer records one client's spans in memory; when off, every call
// is a no-op.
type tracer struct {
	on    bool
	op    int
	spans []span
	ids   int
	// root is the current op's own span.
	root int
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	t.ids++
	t.spans = append(t.spans, span{op: t.op, id: t.ids, parent: parent, name: name, start: time.Now().UnixNano()})
	return t.ids
}

// end closes span id.
func (t *tracer) end(id int) {
	if !t.on {
		return
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].id == id {
			t.spans[i].end = time.Now().UnixNano()
			return
		}
	}
}

// writeSpans writes spans as JSON lines, times in nanoseconds since
// the epoch.
func writeSpans(w io.Writer, spans []span) error {
	bw := bufio.NewWriter(w)
	for _, s := range spans {
		fmt.Fprintf(bw, "{\"op\":%d,\"id\":%d,\"parent\":%d,\"name\":%q,\"start\":%d,\"end\":%d}\n",
			s.op, s.id, s.parent, s.name, s.start, s.end)
	}
	return bw.Flush()
}

// spanStats sums total and self time per span name. Self time is a
// span's duration minus the part of it its children cover.
func spanStats(spans []span) (total, self map[string]time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	type key struct{ op, id int }
	kids := map[key][]span{}
	for _, s := range spans {
		kids[key{s.op, s.parent}] = append(kids[key{s.op, s.parent}], s)
	}
	for _, s := range spans {
		d := time.Duration(s.end - s.start)
		total[s.name] += d
		cs := kids[key{s.op, s.id}]
		sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
		covered, reach := int64(0), s.start
		for _, c := range cs {
			lo, hi := max(c.start, reach), min(c.end, s.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.name] += d - time.Duration(covered)
	}
	return total, self
}
