package main

import (
	"fmt"
	"io"
	"net/http"
	"time"

	"traceback/internal/archive"
	"traceback/internal/recon"
	"traceback/internal/snap"
	"traceback/internal/telemetry"
)

// httpClient serves every benchmark request; the timeout turns a hung
// daemon into a failed op instead of a hung run.
var httpClient = &http.Client{Timeout: 60 * time.Second}

// get fetches url and fails on any status but 200.
func get(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}

// mapCache is a daemon's map resolver as tbcollectd builds it: a
// cache over the mapfiles in dir.
func mapCache(dir string) (*recon.MapCache, error) {
	l, err := recon.NewDirLoader(dir)
	if err != nil {
		return nil, err
	}
	return recon.NewMapCache(l.Load), nil
}

// directIndex is the reference warehouse: snaps ingested straight
// into a fresh local archive under dir by the daemon's dedup rule
// (IngestUnique), with their corpus signatures. It returns the
// canonical index bytes and the archive's registry.
func directIndex(dir string, snaps []*snap.Snap, sigs []archive.Signature) ([]byte, *telemetry.Registry, error) {
	reg := telemetry.New()
	arch, err := archive.OpenWith(dir, archive.Options{Telemetry: reg})
	if err != nil {
		return nil, nil, err
	}
	defer arch.Close()
	// Ingest is safe for concurrent use and the index is an
	// order-independent reduction, so the snaps go in in parallel.
	if err := parallel(len(snaps), func(i int) error {
		_, err := arch.IngestUnique(snaps[i], sigs[i])
		return err
	}); err != nil {
		return nil, nil, err
	}
	idx, err := arch.IndexBytes()
	return idx, reg, err
}

// tally accumulates registry readings across the registries of a
// window's rounds and daemons.
type tally map[string]float64

// add reads the named counters, and for histograms their sum (as
// name) and count (as name+"_count"), from reg.
func (t tally) add(reg *telemetry.Registry, counters, hists []string) {
	for _, n := range counters {
		t[n] += float64(reg.Counter(n, "").Load())
	}
	for _, n := range hists {
		h := reg.Histogram(n, "", telemetry.DurationBuckets())
		t[n] += float64(h.Sum())
		t[n+"_count"] += float64(h.Count())
	}
}

// sub returns t minus base, name by name.
func (t tally) sub(base tally) tally {
	out := tally{}
	for k, v := range t {
		out[k] = v - base[k]
	}
	return out
}

// frac is a/b, or 0 when nothing was attempted.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nsToMs converts a nanosecond total to milliseconds.
func nsToMs(ns float64) float64 { return ns / 1e6 }
