package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"traceback/internal/recon"
)

// warmOps is the number of ops set-up runs before timing: enough to
// load every mapfile into the cache.
const warmOps = 8

// diagnose is the tbrecon path: one op reconstructs one incident
// from its snap files at jobs=GOMAXPROCS, stitches it, and renders
// it; the render's hash must equal a sequential reference.
func setupDiagnose(o *options, c *corpus, dir string) (*bench, error) {
	mapDir := filepath.Join(dir, "maps")
	if err := c.writeMaps(mapDir); err != nil {
		return nil, err
	}
	// Per incident: write its snap files, then compute the reference,
	// the harvested snaps (never encoded) each reconstructed by the
	// sequential oracle on mapfiles held in memory. The op must reach
	// the same render through the files.
	files := make([][]string, len(c.incidents))
	sizes := make([]int64, len(c.incidents))
	want := make([]string, len(c.incidents))
	err := parallel(len(c.incidents), func(i int) error {
		idir := filepath.Join(dir, fmt.Sprintf("incident-%03d", i))
		if err := os.MkdirAll(idir, 0o755); err != nil {
			return err
		}
		var pts []*recon.ProcessTrace
		for j, s := range c.incidents[i].snaps {
			p := filepath.Join(idir, fmt.Sprintf("%d-%s.snap.json.gz", j, s.Process))
			if err := writeFile(p, s.SaveCompressed); err != nil {
				return err
			}
			st, err := os.Stat(p)
			if err != nil {
				return err
			}
			sizes[i] += st.Size()
			files[i] = append(files[i], p)
			pt, err := recon.Reconstruct(s, c.maps)
			if err != nil {
				return fmt.Errorf("incident %d: %w", i, err)
			}
			pts = append(pts, pt)
		}
		want[i] = renderHash(pts, &tracer{}, -1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var fileBytes int64
	for _, n := range sizes {
		fileBytes += n
	}

	maps, err := mapCache(mapDir)
	if err != nil {
		return nil, err
	}
	pipe := recon.NewPipeline(maps, runtime.GOMAXPROCS(0))
	order := permutation(o.seed, 0, len(c.incidents))
	op := func(i int, t *tracer) error {
		k := order[i%len(order)]
		srcs := make([]recon.Source, len(files[k]))
		for j, p := range files[k] {
			srcs[j] = recon.FileSource(p)
		}
		sp := t.begin("recon.pipeline", t.root)
		res := pipe.Run(srcs)
		t.end(sp)
		pts := make([]*recon.ProcessTrace, len(res))
		for j, r := range res {
			if r.Err != nil {
				return fmt.Errorf("incident %d: %s: %w", k, r.Name, r.Err)
			}
			pts[j] = r.Trace
		}
		if got := renderHash(pts, t, t.root); got != want[k] {
			return fmt.Errorf("incident %d: render hash %s, reference %s", k, got[:12], want[k][:12])
		}
		return nil
	}

	// Warm-up ops fill the map cache. The deterministic record count
	// comes from one batch over the snaps in memory, which mines
	// exactly what the ops mine without paying for the decode.
	for i := 0; i < min(warmOps, len(order)); i++ {
		if err := op(i, &tracer{}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	var all []recon.Source
	for i, inc := range c.incidents {
		for j, s := range inc.snaps {
			all = append(all, recon.SnapSource(files[i][j], s))
		}
	}
	counter := recon.NewPipeline(c.maps, runtime.GOMAXPROCS(0))
	for _, r := range counter.Run(all) {
		if r.Err != nil {
			return nil, fmt.Errorf("%s: %w", r.Name, r.Err)
		}
	}
	mined := counter.Snapshot().RecordsMined
	n := float64(len(c.incidents))

	var start recon.StatsSnapshot
	b := &bench{det: c.snapCounts()}
	b.det["recon.records_per_op"] = float64(mined) / n
	b.det["snap.file_bytes_per_snap"] = float64(fileBytes) / float64(len(c.snaps))
	b.corrupt = func() {
		for k := range want {
			want[k] = strings.Repeat("0", len(want[k]))
		}
	}
	b.w = &workload{
		clients:  1,
		roundLen: len(order),
		startRound: func(r int) error {
			order = permutation(o.seed, r, len(files))
			return nil
		},
		begin:    func() { start = pipe.Snapshot() },
		op:       func(_, i int, t *tracer) error { return op(i, t) },
		endRound: func(int, int) (int, error) { return 0, nil },
		layers: func(w *window) map[string]float64 {
			d := pipe.Snapshot()
			ops := float64(len(w.samples))
			records := float64(d.RecordsMined - start.RecordsMined)
			lookups := float64(d.CacheHits + d.CacheMisses - start.CacheHits - start.CacheMisses)
			total, _ := spanStats(w.spans)
			tr := float64(max(w.traced, 1))
			return map[string]float64{
				"snap.load_ms":            ms(d.Load-start.Load) / ops,
				"recon.mine_ms":           ms(d.Mine-start.Mine) / ops,
				"recon.expand_ms":         ms(d.Expand-start.Expand) / ops,
				"recon.join_ms":           ms(d.Join-start.Join) / ops,
				"recon.stitch_ms":         ms(total["recon.stitch"]) / tr,
				"recon.render_ms":         ms(total["recon.render"]) / tr,
				"recon.ns_per_record":     frac(float64((d.Wall - start.Wall).Nanoseconds()), records),
				"recon.allocs_per_record": frac(float64(w.allocObjs), records),
				"recon.mapcache_hit_frac": frac(float64(d.CacheHits-start.CacheHits), lookups),
			}
		},
		close: func() {},
	}
	return b, nil
}

// renderHash stitches an incident's process traces and hashes the
// rendered logical threads and per-process traces.
func renderHash(pts []*recon.ProcessTrace, t *tracer, parent int) string {
	sp := t.begin("recon.stitch", parent)
	mt := recon.Stitch(pts)
	t.end(sp)
	sp = t.begin("recon.render", parent)
	h := sha256.New()
	for _, lt := range mt.Logical {
		recon.RenderLogical(h, lt, recon.RenderOptions{})
	}
	for _, pt := range pts {
		recon.Render(h, pt, recon.RenderOptions{})
	}
	t.end(sp)
	return hex.EncodeToString(h.Sum(nil))
}
