package tbrt

import (
	"testing"

	"traceback/internal/core"
	"traceback/internal/isa"
	"traceback/internal/module"
	"traceback/internal/recon"
	"traceback/internal/snap"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

// TestTLSSlotRebasing: when the default TLS index is unavailable, the
// runtime rewrites every probe's TLS slot through the fixup table at
// load (paper §2.5) — and tracing still works.
func TestTLSSlotRebasing(t *testing.T) {
	res := instr(t, fig2(), core.Options{})
	p, rt, _ := newRT(t, Config{TLSSlot: 20})
	if _, err := p.Load(res.Module); err != nil {
		t.Fatal(err)
	}
	// Every TLS-touching probe instruction now uses slot 20.
	lm := p.Modules[0]
	for _, fx := range res.Module.TLSFixups {
		in := p.Code[lm.CodeBase+fx]
		if in.C != 20 {
			t.Fatalf("fixup at %d still uses slot %d", fx, in.C)
		}
	}
	if _, err := p.StartMain(0); err != nil {
		t.Fatal(err)
	}
	if err := vm.RunProcess(p, 100000); err != nil {
		t.Fatal(err)
	}
	if p.FatalSignal != 0 {
		t.Fatalf("faulted: %s", vm.SignalName(p.FatalSignal))
	}
	s := rt.PostMortemSnap()
	recs := mainBufferRecords(t, s, 1)
	dagCount := 0
	for _, r := range recs {
		if r.Kind == trace.KindNone {
			dagCount++
		}
	}
	if dagCount != 3 {
		t.Errorf("%d DAG records with rebased TLS slot, want 3", dagCount)
	}
}

// TestScavengeDeadThreads: a thread killed abruptly (kill -9) never
// notifies the runtime; the scavenging pass reclaims its buffer for
// reassignment (paper §3.1.2), sacrificing only the uncommitted tail.
func TestScavengeDeadThreads(t *testing.T) {
	// main spawns a worker that loops forever, kills it with signal
	// 9, then exits.
	code := []isa.Instr{
		{Op: isa.LDFN, A: 1, Imm: 1},
		{Op: isa.MOVI, A: 2, Imm: 0},
		{Op: isa.SYS, Imm: isa.SysThreadCreate},
		{Op: isa.MOV, A: 8, B: 0}, // worker tid
		{Op: isa.MOVI, A: 1, Imm: 5000},
		{Op: isa.SYS, Imm: isa.SysSleep}, // let the worker run a while
		{Op: isa.MOV, A: 1, B: 8},
		{Op: isa.MOVI, A: 2, Imm: vm.SigKill},
		{Op: isa.SYS, Imm: isa.SysKill},
		{Op: isa.MOVI, A: 1, Imm: 0},
		{Op: isa.SYS, Imm: isa.SysExit},
		// worker: infinite loop with probes
		{Op: isa.MOVI, A: 5, Imm: 0}, // 11
		{Op: isa.ADDI, A: 5, B: 5, Imm: 1},
		{Op: isa.JMP, Imm: 12},
	}
	m := &module.Module{Name: "scav", Code: code,
		Funcs: []module.Func{
			{Name: "main", Entry: 0, End: 11, Exported: true},
			{Name: "worker", Entry: 11, End: 14},
		}}
	res := instr(t, m, core.Options{})
	p, rt, mach := newRT(t, Config{NumBuffers: 2, BufferWords: 256, SubBuffers: 4})
	p.Load(res.Module)
	p.StartMain(0)
	mach.World.Run(3000, nil)

	// The worker must be dead now (killed by main).
	worker := p.Threads[2]
	if worker == nil || !worker.KilledAbruptly {
		t.Fatalf("worker not abruptly dead: %+v", worker)
	}
	freeBefore := len(rt.free)
	n := rt.ScavengeDeadThreads()
	if n != 1 {
		t.Fatalf("scavenged %d threads, want 1", n)
	}
	if len(rt.free) != freeBefore+1 {
		t.Errorf("buffer not reclaimed: %d free, was %d", len(rt.free), freeBefore)
	}
	// The reclaimed buffer's committed sub-buffers still reconstruct.
	s := rt.PostMortemSnap()
	found := false
	for _, b := range s.Buffers {
		if b.Kind != snap.BufMain {
			continue
		}
		if recs, _, _ := recon.MineBuffer(&b); len(recs) > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no records recoverable after scavenging")
	}
}

// TestStaticBufferFallback: with zero main buffers every thread that
// runs instrumented code lands in the desperation buffer; the static
// buffer config keeps the runtime functional.
func TestNoMainBuffers(t *testing.T) {
	res := instr(t, fig2(), core.Options{})
	p, rt, _ := newRT(t, Config{NumBuffers: -1}) // withDefaults treats <0 as given
	_ = rt
	if _, err := p.Load(res.Module); err != nil {
		t.Fatal(err)
	}
	p.StartMain(0)
	if err := vm.RunProcess(p, 100000); err != nil {
		t.Fatal(err)
	}
	if p.FatalSignal != 0 {
		t.Fatalf("program must run correctly even without buffers: %s",
			vm.SignalName(p.FatalSignal))
	}
}
