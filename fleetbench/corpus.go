package main

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"traceback/internal/archive"
	"traceback/internal/fault"
	"traceback/internal/module"
	"traceback/internal/recon"
	"traceback/internal/snap"
)

// The corpus is every input the workloads feed the program: real
// traced crashes from seeded fault-campaign trials. One trial seed
// runs every (fault kind, scenario) pair the campaign knows, with
// recording on, so each trial's harvest is an incident of 1-4 snaps
// that also carries its nondeterminism log for replay.

// trialKinds maps each VM fault kind to the scenarios it applies to,
// mirroring the campaign's own planner. The collect kind is a wire
// fault, not a VM trial, so it contributes no crashes.
var trialKinds = []struct {
	kind      string
	scenarios []string
}{
	{fault.KindKill, []string{"quickstart", "crossmachine", "deadlock"}},
	{fault.KindSignal, []string{"quickstart", "crossmachine", "deadlock"}},
	{fault.KindRPCDrop, []string{"crossmachine"}},
	{fault.KindRPCDelay, []string{"crossmachine"}},
	{fault.KindRPCDup, []string{"crossmachine"}},
	{fault.KindUnload, []string{"crossmachine"}},
	{fault.KindWrap, []string{"crossmachine"}},
	{fault.KindManaged, []string{"petshop"}},
}

// incident is one trial's harvest.
type incident struct {
	kind  string
	snaps []*snap.Snap
	// replayable: the trial replay-verified, so every snap carries
	// the recording.
	replayable bool
}

// corpus holds the generated inputs and what every workload derives
// from them before timing starts.
type corpus struct {
	incidents []incident
	// snaps is every harvested snap in incident order, duplicates
	// kept; sums and sigs are their content addresses and crash
	// signature IDs.
	snaps []*snap.Snap
	sums  []string
	sigs  []archive.Signature
	maps  *recon.MapSet
	mapfs []*module.MapFile
}

// trialSeeds derives the campaign seeds of one corpus from the
// benchmark seed.
func trialSeeds(seed int64, trials int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, trials)
	for i := range out {
		out[i] = rng.Int63n(1 << 40)
	}
	return out
}

// trialHarvest is one trial seed's incidents and mapfiles.
type trialHarvest struct {
	incidents []incident
	maps      []*module.MapFile
}

// runTrials runs every (kind, scenario) trial of one campaign seed.
func runTrials(ts int64) (trialHarvest, error) {
	var h trialHarvest
	kinds := make([]string, len(trialKinds))
	for i, k := range trialKinds {
		kinds[i] = k.kind
	}
	camp, err := fault.New(fault.Config{Seed: ts, Kinds: kinds, Record: true})
	if err != nil {
		return h, err
	}
	for _, k := range trialKinds {
		for _, scen := range k.scenarios {
			tr, snaps, maps, err := camp.Trial(k.kind, scen)
			if err != nil {
				return h, fmt.Errorf("trial %s/%s seed %d: %w", k.kind, scen, ts, err)
			}
			if len(snaps) == 0 {
				continue
			}
			h.maps = append(h.maps, maps...)
			h.incidents = append(h.incidents, incident{
				kind: k.kind, snaps: snaps,
				replayable: tr.Replayed && len(tr.Violations) == 0,
			})
		}
	}
	return h, nil
}

// parallel runs f(0..n-1) on up to GOMAXPROCS goroutines and returns
// the first error.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// genCorpus runs the seeded trials, in parallel since each campaign
// is independent, and signs every snap. The result is in seed order,
// so it is the same however the trials were scheduled.
func genCorpus(seed int64, trials int) (*corpus, error) {
	seeds := trialSeeds(seed, trials)
	hs := make([]trialHarvest, len(seeds))
	if err := parallel(len(seeds), func(i int) (err error) {
		hs[i], err = runTrials(seeds[i])
		return err
	}); err != nil {
		return nil, err
	}
	c := &corpus{maps: recon.NewMapSet()}
	seenMap := map[string]bool{}
	for _, h := range hs {
		for _, mf := range h.maps {
			if !seenMap[mf.Checksum] {
				seenMap[mf.Checksum] = true
				c.maps.Add(mf)
				c.mapfs = append(c.mapfs, mf)
			}
		}
		for _, inc := range h.incidents {
			c.incidents = append(c.incidents, inc)
			c.snaps = append(c.snaps, inc.snaps...)
		}
	}
	c.sums = make([]string, len(c.snaps))
	c.sigs = make([]archive.Signature, len(c.snaps))
	if err := parallel(len(c.snaps), func(i int) (err error) {
		c.sums[i], _, err = archive.ChecksumSnap(c.snaps[i])
		return err
	}); err != nil {
		return nil, err
	}
	// Sign each distinct snap once; duplicates share the signature.
	first := map[string]int{}
	var distinct []int
	for i, sum := range c.sums {
		if _, ok := first[sum]; !ok {
			first[sum] = i
			distinct = append(distinct, i)
		}
	}
	_ = parallel(len(distinct), func(j int) error {
		i := distinct[j]
		c.sigs[i] = archive.SignSnap(c.snaps[i], c.maps)
		return nil
	})
	for i, sum := range c.sums {
		c.sigs[i] = c.sigs[first[sum]]
	}
	return c, nil
}

// props are the corpus's input properties: what the program's
// behaviour depends on, recorded next to every result.
type props struct {
	Trials       int     `json:"trials"`
	Incidents    int     `json:"incidents"`
	Snaps        int     `json:"snaps"`
	Distinct     int     `json:"distinctSnaps"`
	DupShare     float64 `json:"duplicateShare"`
	Buckets      int     `json:"buckets"`
	LiveWordFrac float64 `json:"liveWordFrac"`
	WrapShare    float64 `json:"wrapIncidentShare"`
	IncidentMin  int     `json:"incidentSnapsMin"`
	IncidentMax  int     `json:"incidentSnapsMax"`
	Replayable   int     `json:"replayableIncidents"`
}

func (c *corpus) props(trials int) props {
	p := props{Trials: trials, Incidents: len(c.incidents), Snaps: len(c.snaps), IncidentMin: 1 << 30}
	distinct := map[string]bool{}
	buckets := map[string]bool{}
	for i, sum := range c.sums {
		distinct[sum] = true
		buckets[c.sigs[i].ID] = true
	}
	p.Distinct, p.Buckets = len(distinct), len(buckets)
	p.DupShare = 1 - float64(p.Distinct)/float64(p.Snaps)
	words, live := c.words()
	p.LiveWordFrac = float64(live) / float64(words)
	wraps := 0
	for _, inc := range c.incidents {
		if inc.kind == fault.KindWrap {
			wraps++
		}
		if inc.replayable {
			p.Replayable++
		}
		p.IncidentMin = min(p.IncidentMin, len(inc.snaps))
		p.IncidentMax = max(p.IncidentMax, len(inc.snaps))
	}
	p.WrapShare = float64(wraps) / float64(len(c.incidents))
	return p
}

// words counts buffer words and live (nonzero) words over every snap.
func (c *corpus) words() (words, live int) {
	for _, s := range c.snaps {
		for i := range s.Buffers {
			for _, w := range s.Buffers[i].Words() {
				words++
				if w != 0 {
					live++
				}
			}
		}
	}
	return words, live
}

// writeMaps writes every mapfile under dir, named by module and
// checksum so two builds of one module cannot collide.
func (c *corpus) writeMaps(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, mf := range c.mapfs {
		if err := writeFile(filepath.Join(dir, mf.ModuleName+"-"+mf.Checksum[:12]+".map.json"), mf.Save); err != nil {
			return err
		}
	}
	return nil
}

func writeFile(path string, save func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// distinctSums returns the corpus's distinct content addresses, sorted.
func (c *corpus) distinctSums() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range c.sums {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
