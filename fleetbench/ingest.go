package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"traceback/internal/archive"
	"traceback/internal/collect"
	"traceback/internal/snap"
	"traceback/internal/telemetry"
	"traceback/internal/triage"
)

// Registry names the ingest workload reads after every round.
var (
	serverCounters = []string{
		"coll_precheck_hits_total", "coll_precheck_misses_total",
		"arch_ingested_total", "arch_deduped_total",
	}
	serverHists  = []string{"coll_upload_nanos", "arch_ingest_nanos", "triage_scan_nanos"}
	agentCounter = []string{"coll_agent_retries_total", "coll_agent_backpressure_total"}
)

// ingest is the crash-to-visible write path: one op spools one snap,
// drains the client's agent into one tbcollectd, and asks
// /v1/regressions for the snap's bucket. A round is one pass over
// the corpus, in a seeded order, into a fresh warehouse whose final
// index must equal a direct local ingest of the same snaps.
func setupIngest(o *options, c *corpus, dir string) (*bench, error) {
	mapDir := filepath.Join(dir, "maps")
	if err := c.writeMaps(mapDir); err != nil {
		return nil, err
	}
	maps, err := mapCache(mapDir)
	if err != nil {
		return nil, err
	}
	fullIdx, refReg, err := directIndex(filepath.Join(dir, "reference"), c.snaps, c.sigs)
	if err != nil {
		return nil, err
	}

	// One loopback daemon address; each round swaps a fresh
	// warehouse and daemon in behind it.
	var cur atomic.Pointer[collect.Server]
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().Handler().ServeHTTP(w, r)
	}))
	// One agent. With nproc agents sharing the CPUs, how their ops
	// overlapped set the latency median, and that overlap followed
	// outside load: over runs alternated on a 2-vCPU VM, the
	// latency_p50_ms spread was 0.26 with two agents and 0.085 with
	// one. The triage workload keeps concurrent uploads beside its
	// queries.
	const clients = 1
	agentReg := telemetry.New()
	spools := make([]string, clients)
	agents := make([]*collect.Agent, clients)
	for i := range agents {
		spools[i] = filepath.Join(dir, fmt.Sprintf("spool-%d", i))
		if err := os.MkdirAll(spools[i], 0o755); err != nil {
			ts.Close()
			return nil, err
		}
		agents[i] = collect.NewAgent(spools[i], ts.URL, collect.AgentOptions{Seed: o.seed + int64(i), Telemetry: agentReg})
	}

	n := len(c.snaps)
	// visible[k] is the bucket op k's query must show.
	visible := make([]string, n)
	for k := range visible {
		visible[k] = c.sigs[k].ID
	}
	var (
		arch     *archive.Archive
		roundDir string
		order    []int
		totals   = tally{}
	)
	startRound := func(r int) error {
		roundDir = filepath.Join(dir, fmt.Sprintf("round-%d", r))
		reg := telemetry.New()
		a, err := archive.OpenWith(roundDir, archive.Options{Telemetry: reg})
		if err != nil {
			return err
		}
		arch = a
		cur.Store(collect.NewServer(a, collect.ServerOptions{Maps: maps, Telemetry: reg}))
		order = permutation(o.seed, r+1, n)
		return nil
	}
	op := func(cl, i int, t *tracer) error {
		k := order[i%n]
		s := c.snaps[k]
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
		if err != nil {
			return fmt.Errorf("snap %d: drain: %w", k, err)
		}
		sp = t.begin("triage.regressions", t.root)
		body, err := get(ts.URL + collect.PathRegressions)
		t.end(sp)
		if err != nil {
			return err
		}
		return hasBucket(body, visible[k])
	}
	endRound := func(r, done int) (int, error) {
		got, err := arch.IndexBytes()
		if err != nil {
			return 0, err
		}
		totals.add(arch.Metrics(), serverCounters, serverHists)
		if err := arch.Close(); err != nil {
			return 0, err
		}
		want := fullIdx
		if done < n {
			sub := make([]*snap.Snap, done)
			sigs := make([]archive.Signature, done)
			for j, k := range order[:done] {
				sub[j], sigs[j] = c.snaps[k], c.sigs[k]
			}
			if want, _, err = directIndex(roundDir+"-reference", sub, sigs); err != nil {
				return 0, err
			}
			os.RemoveAll(roundDir + "-reference")
		}
		os.RemoveAll(roundDir)
		if !bytes.Equal(got, want) {
			logf("round %d: daemon index differs from a direct ingest of its %d snaps", r, done)
			return done, nil
		}
		return 0, nil
	}

	var base tally
	b := &bench{det: c.snapCounts()}
	b.det["archive.bytes_written_per_snap"] = float64(refReg.Counter("arch_bytes_written_total", "").Load()) / float64(len(c.distinctSums()))
	b.corrupt = func() {
		for k := range visible {
			visible[k] = "corrupt"
		}
		fullIdx = nil
	}
	b.w = &workload{
		clients:    clients,
		roundLen:   n,
		warm:       2 * clients,
		startRound: startRound,
		op:         op,
		endRound:   endRound,
		begin: func() {
			base = tally{}
			for k, v := range totals {
				base[k] = v
			}
			base.add(agentReg, agentCounter, nil)
		},
		layers: func(w *window) map[string]float64 {
			d := totals.sub(base)
			d.add(agentReg, agentCounter, nil)
			ops := float64(len(w.samples))
			total, _ := spanStats(w.spans)
			tr := float64(max(w.traced, 1))
			drain := ms(total["collect.drain"]) / tr
			upload := nsToMs(d["coll_upload_nanos"]) / ops
			return map[string]float64{
				"snap.spool_ms":             ms(total["snap.spool"]) / tr,
				"collect.drain_ms":          drain,
				"collect.upload_ms":         upload,
				"collect.agent_self_ms":     drain - upload,
				"collect.precheck_hit_frac": frac(d["coll_precheck_hits_total"], d["coll_precheck_hits_total"]+d["coll_precheck_misses_total"]),
				"collect.retries":           d["coll_agent_retries_total"],
				"collect.backpressure_429":  d["coll_agent_backpressure_total"],
				"archive.ingest_ms":         nsToMs(d["arch_ingest_nanos"]) / ops,
				"archive.dedup_frac":        1 - (d["arch_ingested_total"]-d["arch_deduped_total"])/ops,
				"triage.scan_ms":            nsToMs(d["triage_scan_nanos"]) / ops,
			}
		},
		close: ts.Close,
	}
	return b, nil
}

// hasBucket checks a /v1/regressions answer lists signature sig.
func hasBucket(body []byte, sig string) error {
	var rep triage.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		return fmt.Errorf("regressions: %w", err)
	}
	for _, a := range rep.Assessments {
		if a.Sig == sig {
			return nil
		}
	}
	return fmt.Errorf("regressions: bucket %s not visible", sig)
}
