// Command fleetbench is the repository's benchmark: four seeded,
// closed-loop workloads over the TraceBack fleet path — crash ingest,
// triage queries, incident diagnosis, and replay — driven in-process
// over loopback HTTP. See README.md.
//
//	go run . --workload ingest --seed 1 --seconds 10 --trace 0
//
// Run it from the repository root (the example sources the fault
// campaign compiles are found from there). The last line of standard
// output is the result: {"correct", "attempted", "failed", "metrics"};
// the line before it is the environment and input-property block.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// trials is the corpus size in fault-campaign trial seeds and
	// reps the set-ups per run: defaultTrials and setupReps, which
	// only the tests shrink.
	trials int
	reps   int
	work   string
	// spans, when set, is where a traced run writes its spans.
	spans string
	// corrupt (tests only) damages the references after set-up.
	corrupt bool
}

// bench is one set-up workload, plus the deterministic counts its
// set-up produced: they must repeat exactly for one seed.
type bench struct {
	w     *workload
	det   map[string]float64
	props props
	// first is the timed window's first round; warm-up rounds come
	// before it.
	first int
	// corrupt damages every reference the workload's output checks
	// compare against, so the tests can see failures get counted.
	corrupt func()
}

type setupFunc func(o *options, c *corpus, dir string) (*bench, error)

var setups = map[string]setupFunc{
	"ingest":    setupIngest,
	"triage":    setupTriage,
	"diagnose":  setupDiagnose,
	"reproduce": setupReproduce,
}

// defaultTrials is each workload's corpus size in trial seeds: 8,
// for an input mix (incident sizes, bucket count) that is stable from
// seed to seed, except for ingest, whose round is one pass over the
// corpus and must stay short enough for several rounds in a window.
var defaultTrials = map[string]int{"ingest": 4, "triage": 8, "diagnose": 8, "reproduce": 8}

// setupReps is the number of set-ups per run; setup_s is their median.
const setupReps = 3

func main() {
	o := &options{}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "ingest, triage, diagnose, or reproduce")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the corpus is a pure function of it")
	flag.IntVar(&o.seconds, "seconds", 10, "timed window, in seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run, printing the per-layer metrics")
	flag.StringVar(&o.work, "work", filepath.Join(".bench_build", "fleetbench"), "scratch directory for snap files and archives")
	flag.StringVar(&o.spans, "spans", "", "traced run: write every span to this file, one JSON object a line")
	flag.Parse()
	o.trace = trace == 1
	o.trials, o.reps = defaultTrials[o.workload], setupReps
	res, info, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleetbench:", err)
		os.Exit(1)
	}
	emit(os.Stdout, info)
	emit(os.Stdout, res)
}

func emit(w *os.File, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs of numbers and strings
	}
	fmt.Fprintln(w, string(b))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is the environment block printed before every result.
type info struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Traced     bool               `json:"traced"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"goVersion"`
	Commit     string             `json:"commit"`
	Clients    int                `json:"clients"`
	Samples    int                `json:"samples"`
	TracedOps  int                `json:"tracedSamples,omitempty"`
	FailedFrac float64            `json:"failed_frac"`
	PeakHeapMB float64            `json:"peak_heap_mb"`
	SetupRuns  []float64          `json:"setupRunsS"`
	Props      props              `json:"inputs"`
	Det        map[string]float64 `json:"deterministic"`
}

func run(o *options) (*result, *info, error) {
	setup, ok := setups[o.workload]
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (want ingest, triage, diagnose, or reproduce)", o.workload)
	}
	if o.seconds < 1 {
		return nil, nil, fmt.Errorf("--seconds must be at least 1")
	}
	root, err := os.MkdirTemp(mkdir(o.work), o.workload+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(root)

	// Set up reps times from scratch; every set-up regenerates the
	// corpus, so its deterministic counts double as a repeatability
	// check across independent runs of one seed.
	var b *bench
	var times []float64
	for rep := 0; rep < o.reps; rep++ {
		if b != nil {
			b.w.close()
		}
		t0 := time.Now()
		nb, err := setupOnce(o, setup, filepath.Join(root, fmt.Sprint(rep)))
		if err != nil {
			return nil, nil, err
		}
		runtime.GC()
		times = append(times, time.Since(t0).Seconds())
		if b != nil {
			if diff := diffCounts(b.det, nb.det); diff != "" {
				nb.w.close()
				return nil, nil, fmt.Errorf("DETERMINISM CHECK FAILED: seed %d gave different counts on two set-ups: %s", o.seed, diff)
			}
		}
		b = nb
	}
	if o.corrupt {
		b.corrupt()
	}
	if b.w.begin != nil {
		b.w.begin()
	}
	win, _, err := measure(b.w, time.Duration(o.seconds)*time.Second, o.trace, b.first, 0)
	b.w.close()
	if err != nil {
		return nil, nil, err
	}

	in := &info{
		Workload: o.workload, Seed: o.seed, Traced: o.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
		Clients: b.w.clients, Samples: len(win.samples), TracedOps: win.traced,
		FailedFrac: float64(win.failed) / float64(max(len(win.samples), 1)),
		PeakHeapMB: float64(win.peak) / (1 << 20),
		SetupRuns:  times, Props: b.props, Det: b.det,
	}
	res := &result{Attempted: len(win.samples), Failed: win.failed, Metrics: map[string]metric{}}
	res.Correct = win.failed == 0 && len(win.samples) > 0
	if o.trace {
		vals := b.w.layers(win)
		for k, v := range b.det {
			vals[k] = v
		}
		vals["trace.overhead_frac"] = traceOverhead(win)
		vals["peak_heap_mb"] = in.PeakHeapMB
		_, self := spanStats(win.spans)
		vals["op.self_ms"] = ms(self["op"]) / float64(max(win.traced, 1))
		if o.spans != "" {
			if err := writeFile(o.spans, func(w io.Writer) error { return writeSpans(w, win.spans) }); err != nil {
				return nil, nil, err
			}
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	} else {
		vals := endToEnd(win, median(times))
		for _, m := range endToEndMetrics {
			// A latency quantile that lands on failed ops is
			// infinite, which JSON cannot carry: report the largest
			// finite number instead.
			res.Metrics[m.name] = metric{min(vals[m.name], math.MaxFloat64), m.unit}
		}
	}
	return res, in, nil
}

func setupOnce(o *options, setup setupFunc, dir string) (*bench, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	c, err := genCorpus(o.seed, o.trials)
	if err != nil {
		return nil, err
	}
	b, err := setup(o, c, dir)
	if err != nil {
		return nil, err
	}
	b.props = c.props(o.trials)
	if b.w.warm > 0 {
		win, next, err := measure(b.w, time.Hour, false, 0, b.w.warm)
		if err != nil {
			b.w.close()
			return nil, err
		}
		if win.failed > 0 {
			b.w.close()
			return nil, fmt.Errorf("%d of %d warm-up ops failed", win.failed, len(win.samples))
		}
		b.first = next
	}
	return b, nil
}

// traceOverhead compares the mean latency of traced and untraced ops
// of one traced run: the cost of recording spans. It is a mean, not a
// median, because an op's latency is multimodal (incidents of 1 to 5
// snaps, dups against uploads) and a median near a gap between modes
// jumps with the sample.
func traceOverhead(w *window) float64 {
	var sum [2]float64
	var n [2]int
	for _, s := range w.samples {
		if s.failed {
			continue
		}
		k := 0
		if s.traced {
			k = 1
		}
		sum[k] += float64(s.ns)
		n[k]++
	}
	if n[0] == 0 || n[1] == 0 {
		return 0
	}
	return (sum[1]/float64(n[1]))/(sum[0]/float64(n[0])) - 1
}

func diffCounts(a, b map[string]float64) string {
	var keys []string
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if a[k] != b[k] {
			return fmt.Sprintf("%s: %v vs %v", k, a[k], b[k])
		}
	}
	return ""
}

// snapCounts are the corpus's deterministic snap-layer counts.
func (c *corpus) snapCounts() map[string]float64 {
	words, live := c.words()
	return map[string]float64{
		"snap.words_per_snap": float64(words) / float64(len(c.snaps)),
		"snap.live_word_frac": float64(live) / float64(words),
	}
}

// permutation is a seeded shuffle of 0..n-1; round r of a workload
// gets its own.
func permutation(seed int64, r, n int) []int {
	return rand.New(rand.NewSource(seed*7919 + int64(r))).Perm(n)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mkdir(p string) string {
	_ = os.MkdirAll(p, 0o755) // MkdirTemp reports the failure
	return p
}

func commit() string {
	if c := os.Getenv("FLEETBENCH_COMMIT"); c != "" {
		return c
	}
	return "unknown"
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fleetbench: "+format+"\n", args...)
}
