package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"traceback/internal/replay"
	"traceback/internal/scenario"
	"traceback/internal/snap"
	"traceback/internal/tbrt"
	"traceback/internal/telemetry"
)

// reproduce is the tbreplay path: one op decodes an incident's
// embedded recording and strictly replays it, and the replayed
// harvest must match the original byte for byte.
func setupReproduce(o *options, c *corpus, dir string) (*bench, error) {
	var incs []incident
	for _, inc := range c.incidents {
		if inc.replayable {
			incs = append(incs, inc)
		}
	}
	if len(incs) == 0 {
		return nil, fmt.Errorf("corpus has no replayable incident")
	}
	// cycles[k] is incident k's deterministic VM cost, from a shadow
	// replay that also times the runtime's snaps; ev is the
	// recordings' total length.
	cycles := make([]uint64, len(incs))
	tbrtReg := telemetry.New()
	var ev, cy float64
	for k, inc := range incs {
		l, err := replay.FromSnap(inc.snaps[0])
		if err != nil {
			return nil, fmt.Errorf("incident %d: %w", k, err)
		}
		if cycles[k], err = shadowReplay(l, inc.snaps, tbrtReg); err != nil {
			return nil, fmt.Errorf("incident %d: %w", k, err)
		}
		ev += float64(len(l.Events))
		cy += float64(cycles[k])
	}
	h := tbrtReg.Histogram("tbrt_snap_nanos", "", telemetry.DurationBuckets())
	snapMs := frac(nsToMs(float64(h.Sum())), float64(h.Count()))
	// One client runs every op, so these need no lock.
	var divergences int
	var tracedCycles float64
	order := permutation(o.seed, 0, len(incs))
	op := func(i int, t *tracer) error {
		k := order[i%len(order)]
		inc := incs[k]
		if t.on {
			tracedCycles += float64(cycles[k])
		}
		sp := t.begin("replay.load", t.root)
		l, err := replay.FromSnap(inc.snaps[0])
		t.end(sp)
		if err != nil {
			return fmt.Errorf("incident %d: %w", k, err)
		}
		sp = t.begin("replay.verify", t.root)
		res, err := replay.Verify(l, inc.snaps)
		t.end(sp)
		if err != nil {
			return fmt.Errorf("incident %d: %w", k, err)
		}
		if res.Divergence != nil {
			divergences++
			return fmt.Errorf("incident %d: %v", k, res.Divergence)
		}
		if !res.Identical {
			return fmt.Errorf("incident %d: replayed harvest differs", k)
		}
		return nil
	}
	for i := 0; i < min(warmOps, len(order)); i++ {
		if err := op(i, &tracer{}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	n := float64(len(incs))
	b := &bench{det: c.snapCounts()}
	b.det["replay.events_per_op"] = ev / n
	b.det["vm.cycles_per_op"] = cy / n
	divergences = 0
	b.corrupt = func() {
		for k := range incs {
			damaged := make([]*snap.Snap, len(incs[k].snaps))
			for j, s := range incs[k].snaps {
				cp := *s
				cp.Time++
				damaged[j] = &cp
			}
			incs[k].snaps = damaged
		}
	}
	b.w = &workload{
		clients:  1,
		roundLen: len(order),
		startRound: func(r int) error {
			order = permutation(o.seed, r, len(incs))
			return nil
		},
		op:       func(_, i int, t *tracer) error { return op(i, t) },
		endRound: func(int, int) (int, error) { return 0, nil },
		layers: func(w *window) map[string]float64 {
			total, _ := spanStats(w.spans)
			return map[string]float64{
				"tbrt.snap_ms":       snapMs,
				"replay.verify_ms":   ms(total["replay.verify"]) / float64(max(w.traced, 1)),
				"replay.divergences": float64(divergences),
				"vm.ns_per_cycle":    frac(float64(total["replay.verify"].Nanoseconds()), tracedCycles),
			}
		},
		close: func() {},
	}
	return b, nil
}

// shadowReplay replays l strictly once more, the way replay.Run
// does, with the registries attached that replay.Verify keeps
// private: reg collects the runtimes' tbrt_* metrics, and a registry
// of its own the machines' vm_* ones. The harvest must match the
// originals byte for byte. It returns the cycles the machines ran
// (vm_cycles: their clocks, summed, without the skew snap timestamps
// carry).
func shadowReplay(l *replay.Log, originals []*snap.Snap, reg *telemetry.Registry) (uint64, error) {
	vmReg := telemetry.New()
	d := replay.NewDriver(l, true)
	var got []*snap.Snap
	if l.Scenario == replay.ManagedScenario {
		v, threads, _, err := replay.BuildPetShop()
		if err != nil {
			return 0, err
		}
		v.Machine.EnableTelemetry(vmReg)
		v.OnQuantum = d.ManagedOnQuantum
		v.Run(1<<30, replay.PetShopDone(threads))
		got = v.Runtime().Snaps()
	} else {
		cfg := tbrt.Config{Policy: tbrt.DefaultPolicy()}
		if l.Wrap {
			cfg = *replay.WrapOptions().Config
		}
		cfg.Telemetry = reg
		var setup *scenario.Setup
		var err error
		for _, b := range scenario.Builders {
			if b.Name == l.Scenario {
				setup, err = b.Build(scenario.Options{Config: &cfg})
			}
		}
		if setup == nil || err != nil {
			return 0, fmt.Errorf("scenario %q: %v", l.Scenario, err)
		}
		for _, m := range setup.World.Machines {
			m.EnableTelemetry(vmReg)
		}
		setup.World.SetInjector(d)
		setup.World.SetRecorder(d)
		setup.Run(0)
		got = replay.HarvestTrial(setup)
	}
	d.Finish()
	if d.Divergence() != nil || len(got) != len(originals) {
		return 0, fmt.Errorf("%s: shadow replay departed from the recording", l.Scenario)
	}
	for j := range got {
		a, err1 := replay.StrippedBytes(got[j])
		b, err2 := replay.StrippedBytes(originals[j])
		if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
			return 0, fmt.Errorf("%s: shadow replay harvest differs", l.Scenario)
		}
	}
	var dump struct{ Gauges map[string]int64 }
	var buf bytes.Buffer
	if err := vmReg.WriteJSON(&buf); err != nil {
		return 0, err
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		return 0, err
	}
	return uint64(dump.Gauges["vm_cycles"]), nil
}
