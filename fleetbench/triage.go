package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/shard"
	"traceback/internal/shard/gate"
	"traceback/internal/snap"
	"traceback/internal/telemetry"
)

// The triage query mix: route, path, and share of queries. It follows
// the repository's own callers. The one remote client that polls a
// daemon, tbstore watch, reads /v1/regressions (every 5 s per
// dashboard), and the fleet checks read it after every campaign, so
// it carries most of the load. /v1/buckets and /v1/top are the
// on-demand listings an operator or a check (tools/shardcheck) pulls
// now and then, and /v1/clusters the drill-down after a regression is
// flagged; each keeps a tenth, enough for its per-route time in a
// traced run.
var triageRoutes = []struct {
	name, path string
	share      float64
}{
	{"regressions", collect.PathRegressions, 0.70},
	{"top", collect.PathTop + "?n=10", 0.10},
	{"buckets", collect.PathBuckets, 0.10},
	{"clusters", collect.PathClusters, 0.10},
}

const (
	triageShards = 2
	// uploadEvery: the first op of every round of this many ops first
	// uploads a fresh snap, so cached query state must invalidate.
	uploadEvery = 20
	// checkEvery: about one query in this many is held byte for byte
	// to the single-node reference.
	checkEvery = 8
)

var (
	gateCounters = []string{
		"gate_fanouts_total", "gate_fanout_errors_total", "triage_exemplar_recons_total",
		"triage_dist_cache_hits_total", "triage_dist_cache_misses_total",
	}
	gateHists = []string{"gate_merge_nanos", "triage_scan_nanos", "triage_cluster_nanos"}
)

// checked is one sampled gate answer. The fleet held between lo and
// hi uploads while it was computed.
type checked struct {
	route  int
	body   []byte
	lo, hi int
}

// triage is the read path with writes beside it: a 2-shard loopback
// fleet behind the fan-out gate, preloaded by ring placement, serving
// a seeded query mix while a trickle of fresh snaps is uploaded
// through shard-aware agents.
func setupTriage(o *options, c *corpus, dir string) (*bench, error) {
	mapDir := filepath.Join(dir, "maps")
	if err := c.writeMaps(mapDir); err != nil {
		return nil, err
	}
	f := &fleet{}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()

	// Hold back a seeded fifth of the distinct snaps: they are the
	// fresh uploads. Everything else, duplicates included, preloads.
	distinct := c.distinctSums()
	rng := rand.New(rand.NewSource(o.seed))
	rng.Shuffle(len(distinct), func(i, j int) { distinct[i], distinct[j] = distinct[j], distinct[i] })
	held := map[string]bool{}
	for _, s := range distinct[:max(1, len(distinct)/5)] {
		held[s] = true
	}
	var reserve []int
	ring, err := shard.NewRing(triageShards)
	if err != nil {
		return nil, err
	}
	shardArchs := make([]*archive.Archive, triageShards)
	shardRegs := make([]*telemetry.Registry, triageShards)
	for i := range shardArchs {
		shardRegs[i] = telemetry.New()
		if shardArchs[i], err = f.open(filepath.Join(dir, fmt.Sprintf("shard-%d", i)), shardRegs[i]); err != nil {
			return nil, err
		}
	}
	ref, err := f.open(filepath.Join(dir, "reference"), telemetry.New())
	if err != nil {
		return nil, err
	}
	var preload []int
	for k := range c.snaps {
		if held[c.sums[k]] {
			reserve = appendOnce(reserve, k, c.sums)
		} else {
			preload = append(preload, k)
		}
	}
	// Ingest is safe for concurrent use and the index is an
	// order-independent reduction, so the preload runs in parallel.
	if err := parallel(len(preload), func(j int) error {
		k := preload[j]
		home, err := ring.Place(c.sums[k])
		if err != nil {
			return err
		}
		if _, err := shardArchs[home].Ingest(c.snaps[k], c.sigs[k]); err != nil {
			return err
		}
		_, err = ref.Ingest(c.snaps[k], c.sigs[k])
		return err
	}); err != nil {
		return nil, err
	}

	urls := make([]string, triageShards)
	for i, a := range shardArchs {
		maps, err := mapCache(mapDir)
		if err != nil {
			return nil, err
		}
		urls[i] = f.serve(collect.NewServer(a, collect.ServerOptions{Maps: maps, Telemetry: shardRegs[i]}).Handler()).URL
	}
	maps, err := mapCache(mapDir)
	if err != nil {
		return nil, err
	}
	gateReg := telemetry.New()
	g, err := gate.New(urls, gate.Options{Maps: maps, Telemetry: gateReg})
	if err != nil {
		return nil, err
	}
	gateURL := f.serve(g.Handler()).URL
	refMaps, err := mapCache(mapDir)
	if err != nil {
		return nil, err
	}
	refURL := f.serve(collect.NewServer(ref, collect.ServerOptions{Maps: refMaps}).Handler()).URL

	clients := runtime.NumCPU()
	agentReg := telemetry.New()
	spools := make([]string, clients)
	agents := make([]*collect.Agent, clients)
	for i := range agents {
		spools[i] = filepath.Join(dir, fmt.Sprintf("spool-%d", i))
		if err := os.MkdirAll(spools[i], 0o755); err != nil {
			return nil, err
		}
		if agents[i], err = collect.NewFleetAgent(spools[i], urls, collect.AgentOptions{Seed: o.seed + int64(i), Telemetry: agentReg}); err != nil {
			return nil, err
		}
	}

	// fresh returns upload u's snap: the reserve in turn, re-hosted
	// on every later lap so each upload is new content. Only the
	// reserve stays in memory; the rest of the corpus lives in the
	// shards.
	heldSnaps := make([]*snap.Snap, len(reserve))
	heldSigs := make([]archive.Signature, len(reserve))
	for j, k := range reserve {
		heldSnaps[j], heldSigs[j] = c.snaps[k], c.sigs[k]
	}
	fresh := func(u int) (*snap.Snap, archive.Signature) {
		j := u % len(heldSnaps)
		s := heldSnaps[j]
		if lap := u / len(heldSnaps); lap > 0 {
			cp := *s
			cp.Host = fmt.Sprintf("%s-lap%d", s.Host, lap)
			s = &cp
		}
		return s, heldSigs[j]
	}

	var (
		started, finished atomic.Int64
		respBytes         atomic.Int64
		mu                sync.Mutex
		samples           []checked
	)
	op := func(cl, i int, t *tracer) error {
		if i%uploadEvery == 0 {
			s, _ := fresh(i / uploadEvery)
			started.Add(1)
			sp := t.begin("snap.spool", t.root)
			_, err := collect.Spool(spools[cl], s)
			t.end(sp)
			if err != nil {
				return err
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			sp = t.begin("collect.drain", t.root)
			err = agents[cl].Drain(ctx)
			t.end(sp)
			cancel()
			finished.Add(1)
			if err != nil {
				return fmt.Errorf("upload %d: drain: %w", i/uploadEvery, err)
			}
		}
		u := unitHash(o.seed, i)
		route := 0
		for acc := triageRoutes[0].share; route < len(triageRoutes)-1 && u >= acc; acc += triageRoutes[route].share {
			route++
		}
		lo := int(finished.Load())
		sp := t.begin("gate."+triageRoutes[route].name, t.root)
		body, err := get(gateURL + triageRoutes[route].path)
		t.end(sp)
		hi := int(started.Load())
		if err != nil {
			return err
		}
		respBytes.Add(int64(len(body)))
		if !json.Valid(body) {
			return fmt.Errorf("%s: invalid JSON", triageRoutes[route].name)
		}
		if unitHash(o.seed+1, i) < 1.0/checkEvery {
			mu.Lock()
			samples = append(samples, checked{route, body, lo, hi})
			mu.Unlock()
		}
		return nil
	}

	// refAt holds the reference daemon's answers at the upload count
	// it has reached; endRound brings the reference along, one upload
	// per round, and checks the round's samples against it.
	uploads := 0
	damaged := false
	refAt := map[int]map[int][]byte{}
	refAnswer := func(gen, route int) ([]byte, error) {
		if refAt[gen] == nil {
			refAt[gen] = map[int][]byte{}
		}
		if b, ok := refAt[gen][route]; ok {
			return b, nil
		}
		if gen != uploads {
			return nil, fmt.Errorf("reference answer for upload %d needed at upload %d", gen, uploads)
		}
		b, err := get(refURL + triageRoutes[route].path)
		refAt[gen][route] = b
		return b, err
	}
	endRound := func(r, done int) (int, error) {
		// First every answer the round needs from before its upload,
		// then the upload, then the rest.
		for _, s := range samples {
			if s.lo == uploads {
				if _, err := refAnswer(uploads, s.route); err != nil {
					return 0, err
				}
			}
		}
		if done > 0 {
			s, sig := fresh(r)
			if _, err := ref.IngestUnique(s, sig); err != nil {
				return 0, err
			}
			delete(refAt, uploads-1)
			uploads++
		}
		bad := 0
		for _, s := range samples {
			match := false
			for gen := s.lo; gen <= s.hi && !match; gen++ {
				want, err := refAnswer(gen, s.route)
				if err != nil {
					return 0, err
				}
				if damaged {
					want = append([]byte("!"), want...)
				}
				match = bytes.Equal(s.body, want)
			}
			if !match {
				logf("round %d: gate %s answer differs from the single-node reference", r, triageRoutes[s.route].name)
				bad++
			}
		}
		samples = samples[:0]
		return bad, nil
	}

	var base tally
	read := func() tally {
		t := tally{}
		t.add(gateReg, gateCounters, gateHists)
		for _, reg := range shardRegs {
			t.add(reg, serverCounters, serverHists)
		}
		t.add(agentReg, agentCounter, nil)
		t["resp_bytes"] = float64(respBytes.Load())
		return t
	}
	b := &bench{det: c.snapCounts(), corrupt: func() { damaged = true }}
	b.det["archive.bytes_written_per_snap"] = bytesPerBlob(shardRegs, shardArchs)
	b.w = &workload{
		clients:    clients,
		roundLen:   uploadEvery,
		warm:       2 * uploadEvery,
		startRound: func(int) error { return nil },
		op:         op,
		endRound:   endRound,
		begin:      func() { base = read() },
		layers: func(w *window) map[string]float64 {
			d := read().sub(base)
			ops := float64(len(w.samples))
			offered := d["coll_precheck_hits_total"] + d["coll_precheck_misses_total"]
			total, _ := spanStats(w.spans)
			tr := float64(max(w.traced, 1))
			out := map[string]float64{
				"snap.spool_ms":               ms(total["snap.spool"]) / tr,
				"collect.drain_ms":            ms(total["collect.drain"]) / tr,
				"collect.upload_ms":           nsToMs(d["coll_upload_nanos"]) / ops,
				"collect.precheck_hit_frac":   frac(d["coll_precheck_hits_total"], offered),
				"collect.retries":             d["coll_agent_retries_total"],
				"collect.backpressure_429":    d["coll_agent_backpressure_total"],
				"archive.ingest_ms":           nsToMs(d["arch_ingest_nanos"]) / ops,
				"archive.dedup_frac":          1 - frac(d["arch_ingested_total"]-d["arch_deduped_total"], offered),
				"gate.merge_ms":               nsToMs(d["gate_merge_nanos"]) / ops,
				"gate.fanouts_per_query":      d["gate_fanouts_total"] / ops,
				"gate.merged_bytes_per_query": d["resp_bytes"] / ops,
				"gate.fanout_errors":          d["gate_fanout_errors_total"],
				"triage.scan_ms":              nsToMs(d["triage_scan_nanos"]) / ops,
				"triage.cluster_ms":           nsToMs(d["triage_cluster_nanos"]) / ops,
				"triage.dist_cache_hit_frac":  frac(d["triage_dist_cache_hits_total"], d["triage_dist_cache_hits_total"]+d["triage_dist_cache_misses_total"]),
				"triage.exemplar_recons":      d["triage_exemplar_recons_total"],
			}
			out["collect.agent_self_ms"] = out["collect.drain_ms"] - out["collect.upload_ms"]
			calls := map[string]float64{}
			for _, s := range w.spans {
				calls[s.name]++
			}
			for _, rt := range triageRoutes {
				name := "gate." + rt.name
				out["gate.query_ms."+rt.name] = frac(ms(total[name]), calls[name])
			}
			return out
		},
		close: f.close,
	}
	ok = true
	return b, nil
}

// fleet owns a workload's loopback servers and archives.
type fleet struct {
	servers []*httptest.Server
	archs   []*archive.Archive
}

func (f *fleet) open(dir string, reg *telemetry.Registry) (*archive.Archive, error) {
	a, err := archive.OpenWith(dir, archive.Options{Telemetry: reg})
	if err == nil {
		f.archs = append(f.archs, a)
	}
	return a, err
}

func (f *fleet) serve(h http.Handler) *httptest.Server {
	s := httptest.NewServer(h)
	f.servers = append(f.servers, s)
	return s
}

// close stops the servers, then closes the archives.
func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
	for _, a := range f.archs {
		a.Close()
	}
}

// unitHash maps (seed, i) to [0, 1): the seeded per-op draw.
func unitHash(seed int64, i int) float64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return float64(x>>11) / (1 << 53)
}

// appendOnce appends snap index k unless an earlier index with the
// same content is already in idx.
func appendOnce(idx []int, k int, sums []string) []int {
	for _, j := range idx {
		if sums[j] == sums[k] {
			return idx
		}
	}
	return append(idx, k)
}

// bytesPerBlob is the compressed bytes the preload wrote per blob
// stored, over every shard.
func bytesPerBlob(regs []*telemetry.Registry, archs []*archive.Archive) float64 {
	var written, blobs float64
	for i, reg := range regs {
		written += float64(reg.Counter("arch_bytes_written_total", "").Load())
		blobs += float64(archs[i].NumBlobs())
	}
	return written / blobs
}
