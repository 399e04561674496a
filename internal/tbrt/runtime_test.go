package tbrt

import (
	"strings"
	"testing"

	"traceback/internal/core"
	"traceback/internal/isa"
	"traceback/internal/module"
	"traceback/internal/recon"
	"traceback/internal/snap"
	"traceback/internal/trace"
	"traceback/internal/vm"
)

// fig2 is the Figure 2 program: diamond, call, return, exit via SYS.
func fig2() *module.Module {
	return &module.Module{
		Name: "fig2",
		Code: []isa.Instr{
			{Op: isa.BEQ, A: 1, B: 2, Imm: 3},
			{Op: isa.MOVI, A: 3, Imm: 1},
			{Op: isa.JMP, Imm: 4},
			{Op: isa.MOVI, A: 3, Imm: 2},
			{Op: isa.CALL, Imm: 8},
			{Op: isa.ADD, A: 4, B: 0, C: 3},
			{Op: isa.MOVI, A: 1, Imm: 0},
			{Op: isa.SYS, Imm: isa.SysExit},
			{Op: isa.MOVI, A: 0, Imm: 7}, // rpc
			{Op: isa.RET},
		},
		Funcs: []module.Func{
			{Name: "main", Entry: 0, End: 8, Exported: true},
			{Name: "rpc", Entry: 8, End: 10},
		},
		Files: []string{"fig2.mc"},
		Lines: []module.LineEntry{
			{Index: 0, File: 0, Line: 1}, {Index: 1, File: 0, Line: 2},
			{Index: 3, File: 0, Line: 3}, {Index: 4, File: 0, Line: 4},
			{Index: 5, File: 0, Line: 5}, {Index: 6, File: 0, Line: 6},
			{Index: 8, File: 0, Line: 10},
		},
	}
}

func instr(t *testing.T, m *module.Module, opts core.Options) *core.Result {
	t.Helper()
	res, err := core.Instrument(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func newRT(t *testing.T, cfg Config) (*vm.Process, *Runtime, *vm.Machine) {
	t.Helper()
	w := vm.NewWorld(7)
	m := w.NewMachine("host", 0)
	p, rt, err := NewProcess(m, "app", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p, rt, m
}

// mainBufferRecords returns mined records (oldest first) of the main
// buffer that owns/owned tid, using the snap's last pointer.
func mainBufferRecords(t *testing.T, s *snap.Snap, tid uint32) []trace.Record {
	t.Helper()
	for _, b := range s.Buffers {
		if b.Kind != snap.BufMain {
			continue
		}
		if !b.LastKnown {
			continue
		}
		recs, _, _ := recon.MineBuffer(&b)
		for _, r := range recs {
			if r.Kind == trace.KindThreadStart {
				if ev, err := trace.DecodeThreadEvent(r); err == nil && ev.TID == tid {
					return recs
				}
			}
		}
	}
	t.Fatalf("no main buffer for tid %d", tid)
	return nil
}

func TestEndToEndTraceRecords(t *testing.T) {
	res := instr(t, fig2(), core.Options{})
	p, rt, _ := newRT(t, Config{})
	if _, err := p.Load(res.Module); err != nil {
		t.Fatal(err)
	}
	if _, err := p.StartMain(0); err != nil {
		t.Fatal(err)
	}
	if err := vm.RunProcess(p, 100000); err != nil {
		t.Fatal(err)
	}
	if p.FatalSignal != 0 {
		t.Fatalf("program faulted: %s", vm.SignalName(p.FatalSignal))
	}
	s := rt.PostMortemSnap()
	recs := mainBufferRecords(t, s, 1)

	var dags []uint32
	var bits []trace.Word
	for _, r := range recs {
		if r.Kind == trace.KindNone {
			dags = append(dags, r.DAGID)
			bits = append(bits, r.Bits)
		}
	}
	// Entry DAG (0), rpc's DAG (2), return-point DAG (1).
	want := []uint32{0, 2, 1}
	if len(dags) != len(want) {
		t.Fatalf("DAG records = %v, want %v", dags, want)
	}
	for i := range want {
		if dags[i] != want[i] {
			t.Fatalf("DAG records = %v, want %v", dags, want)
		}
	}
	// r1 == r2 == 0 at entry, so the BEQ takes the branch to block C
	// (bit for C set, bit for B clear): exactly one path bit set.
	if bits[0] == 0 || bits[0]&(bits[0]-1) != 0 {
		t.Errorf("entry DAG path bits = %#x, want exactly one bit", bits[0])
	}
	// Orderly exit: ThreadEnd record present.
	foundEnd := false
	for _, r := range recs {
		if r.Kind == trace.KindThreadEnd {
			foundEnd = true
		}
	}
	if !foundEnd {
		t.Error("no thread-end record after orderly exit")
	}
}

func TestBufferWrapAndSubCommit(t *testing.T) {
	// A loop long enough to wrap a tiny buffer several times.
	loop := &module.Module{
		Name: "spin",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 1, Imm: 500},
			{Op: isa.ADDI, A: 1, B: 1, Imm: -1}, // loop head (becomes a DAG header)
			{Op: isa.BGT, A: 1, B: 0, Imm: 1},
			{Op: isa.MOVI, A: 1, Imm: 0},
			{Op: isa.SYS, Imm: isa.SysExit},
		},
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 5, Exported: true}},
	}
	res := instr(t, loop, core.Options{})
	p, rt, _ := newRT(t, Config{BufferWords: 64, SubBuffers: 4, NumBuffers: 2})
	if _, err := p.Load(res.Module); err != nil {
		t.Fatal(err)
	}
	p.StartMain(0)
	if err := vm.RunProcess(p, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if rt.Wraps() == 0 || rt.SubCommits() == 0 {
		t.Errorf("wraps=%d subCommits=%d, want both > 0", rt.Wraps(), rt.SubCommits())
	}
	s := rt.PostMortemSnap()
	// The wrapped buffer still mines to valid records.
	for _, b := range s.Buffers {
		if b.Kind == snap.BufMain && b.LastKnown {
			recs, _, _ := recon.MineBuffer(&b)
			if len(recs) < 5 {
				t.Errorf("wrapped buffer mined only %d records", len(recs))
			}
			for _, r := range recs {
				if r.Kind == trace.KindNone && r.DAGID > 10 {
					t.Errorf("implausible DAG ID %d from wrapped buffer", r.DAGID)
				}
			}
			return
		}
	}
	t.Fatal("no recoverable main buffer")
}

func TestExceptionRecordAndSnap(t *testing.T) {
	m := &module.Module{
		Name: "div0",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 1, Imm: 1},
			{Op: isa.MOVI, A: 2, Imm: 0},
			{Op: isa.DIV, A: 3, B: 1, C: 2},
			{Op: isa.SYS, Imm: isa.SysExit},
		},
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 4, Exported: true}},
	}
	res := instr(t, m, core.Options{})
	p, rt, _ := newRT(t, Config{Policy: DefaultPolicy()})
	p.Load(res.Module)
	p.StartMain(0)
	vm.RunProcess(p, 100000)
	if p.FatalSignal != vm.SigFpe {
		t.Fatalf("signal = %s", vm.SignalName(p.FatalSignal))
	}
	snaps := rt.Snaps()
	if len(snaps) == 0 {
		t.Fatal("no snap taken on exception")
	}
	s := snaps[0]
	if s.Signal != vm.SigFpe || !strings.Contains(s.Reason, "SIGFPE") {
		t.Errorf("snap reason=%q signal=%d", s.Reason, s.Signal)
	}
	// The exception record is in the trace with the faulting address.
	recs := mainBufferRecords(t, s, 1)
	var exc *trace.Exception
	for _, r := range recs {
		if r.Kind == trace.KindException {
			e, err := trace.DecodeException(r)
			if err != nil {
				t.Fatal(err)
			}
			exc = &e
		}
	}
	if exc == nil {
		t.Fatal("no exception record")
	}
	if exc.Code != vm.SigFpe {
		t.Errorf("exception code = %d", exc.Code)
	}
	if exc.Addr != s.FaultAddr {
		t.Errorf("exception addr %d != snap fault addr %d", exc.Addr, s.FaultAddr)
	}
	// The faulting instruction must be the DIV.
	if op := p.Code[exc.Addr].Op; op != isa.DIV {
		t.Errorf("fault addr points at %v, want div", op)
	}
}

func TestSnapSuppression(t *testing.T) {
	// A loop that handles SIGFPE and keeps dividing by zero: only
	// MaxRepeat snaps for the same location.
	m := &module.Module{
		Name: "fpeloop",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 1, Imm: vm.SigFpe}, // 0
			{Op: isa.LDFN, A: 2, Imm: 1},         // handler addr (post-instrumentation)
			{Op: isa.SYS, Imm: isa.SysSignal},
			{Op: isa.MOVI, A: 8, Imm: 3}, // 3 iterations
			{Op: isa.MOVI, A: 5, Imm: 1}, // 4 loop head
			{Op: isa.MOVI, A: 6, Imm: 0},
			{Op: isa.DIV, A: 7, B: 5, C: 6}, // faults every iteration
			{Op: isa.ADDI, A: 8, B: 8, Imm: -1},
			{Op: isa.BGT, A: 8, B: 0, Imm: 4},
			{Op: isa.MOVI, A: 1, Imm: 0},
			{Op: isa.SYS, Imm: isa.SysExit}, // 10
			{Op: isa.RET},                   // 11 handler: just return
		},
		Funcs: []module.Func{
			{Name: "main", Entry: 0, End: 11, Exported: true},
			{Name: "handler", Entry: 11, End: 12},
		},
	}
	res := instr(t, m, core.Options{})
	p, rt, _ := newRT(t, Config{Policy: Policy{Exceptions: []string{"*"}, MaxRepeat: 1, Fatal: true}})
	p.Load(res.Module)
	p.StartMain(0)
	vm.RunProcess(p, 1_000_000)
	if p.FatalSignal != 0 {
		t.Fatalf("program should survive handled FPEs, got %s", vm.SignalName(p.FatalSignal))
	}
	if len(rt.Snaps()) != 1 {
		t.Errorf("%d snaps, want 1 (suppression)", len(rt.Snaps()))
	}
}

func TestKillMinus9PostMortem(t *testing.T) {
	loop := &module.Module{
		Name: "spin",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 1, Imm: 1 << 30},
			{Op: isa.ADDI, A: 1, B: 1, Imm: -1},
			{Op: isa.BGT, A: 1, B: 0, Imm: 1},
			{Op: isa.SYS, Imm: isa.SysExit},
		},
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 4, Exported: true}},
	}
	res := instr(t, loop, core.Options{})
	p, rt, m := newRT(t, Config{BufferWords: 256, SubBuffers: 4})
	p.Load(res.Module)
	p.StartMain(0)
	m.World.Run(5000, nil)
	m.KillProcess(p)

	s := rt.PostMortemSnap()
	var found bool
	for _, b := range s.Buffers {
		if b.Kind != snap.BufMain || b.OwnerTID == 0 {
			continue
		}
		found = true
		if b.LastKnown {
			t.Error("LastPtr claimed known after abrupt kill (TLS is lost)")
		}
		// Committed sub-buffers still carry minable records: scan for
		// the last non-zero entry (paper §3.2) and mine from there.
		words := b.Words()
		last := -1
		for i, w := range words {
			if w != trace.Invalid && w != trace.Sentinel {
				last = i
			}
		}
		if last < 0 {
			t.Fatal("no data survived the kill")
		}
		recs := trace.MineBackward(words[:last+1])
		if len(recs) == 0 {
			t.Error("no records recoverable after kill -9")
		}
	}
	if !found {
		t.Fatal("no owned main buffer in post-mortem snap")
	}
}

func TestDAGRebasingOnConflict(t *testing.T) {
	modA := fig2()
	modA.Name = "a"
	modB := fig2()
	modB.Name = "b"
	ra := instr(t, modA, core.Options{})
	rb := instr(t, modB, core.Options{})
	p, rt, _ := newRT(t, Config{})
	lma, err := p.Load(ra.Module)
	if err != nil {
		t.Fatal(err)
	}
	lmb, err := p.Load(rb.Module)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Rebased() != 1 {
		t.Fatalf("rebased = %d, want 1 (both modules default to base 0)", rt.Rebased())
	}
	if lma.DAGBase == lmb.DAGBase {
		t.Error("conflicting modules share a DAG base")
	}
	// The probe stores in module b must carry the rebased IDs.
	for _, fx := range rb.Module.DAGFixups {
		w := uint32(p.Code[lmb.CodeBase+fx].Imm)
		id := trace.DAGID(w)
		if id < lmb.DAGBase || id >= lmb.DAGBase+rb.Module.DAGCount {
			t.Errorf("probe DAG ID %d outside rebased range [%d,%d)", id, lmb.DAGBase, lmb.DAGBase+rb.Module.DAGCount)
		}
	}
}

func TestDAGBaseFilePreAssignment(t *testing.T) {
	modA := fig2()
	modA.Name = "a"
	ra := instr(t, modA, core.Options{})
	p, rt, _ := newRT(t, Config{DAGBases: map[string]uint32{"a": 7000}})
	lm, err := p.Load(ra.Module)
	if err != nil {
		t.Fatal(err)
	}
	if lm.DAGBase != 7000 {
		t.Errorf("DAG base = %d, want 7000 from the base file", lm.DAGBase)
	}
	_ = rt
}

func TestReloadReusesRange(t *testing.T) {
	modA := fig2()
	modA.Name = "a"
	ra := instr(t, modA, core.Options{})
	modB := fig2()
	modB.Name = "b"
	rb := instr(t, modB, core.Options{})

	p, _, _ := newRT(t, Config{})
	lma, _ := p.Load(ra.Module)
	p.Load(rb.Module)
	firstBase := lma.DAGBase
	p.Unload(lma)
	lma2, err := p.Load(ra.Module)
	if err != nil {
		t.Fatal(err)
	}
	if lma2.DAGBase != firstBase {
		t.Errorf("reload base = %d, want %d (no ID-space leak)", lma2.DAGBase, firstBase)
	}
}

func TestBadDAGFallback(t *testing.T) {
	m := fig2()
	m.Name = "huge"
	res := instr(t, m, core.Options{})
	// Claim the module needs almost the whole ID space twice.
	res.Module.DAGCount = trace.MaxDAGID - 1
	p, rt, _ := newRT(t, Config{})
	p.Load(res.Module)
	m2 := fig2()
	m2.Name = "huge2"
	res2 := instr(t, m2, core.Options{})
	res2.Module.DAGCount = trace.MaxDAGID - 1
	p.Load(res2.Module)
	if rt.BadDAGs() != 1 {
		t.Fatalf("badDAGs = %d, want 1", rt.BadDAGs())
	}
	// The second module's probes all use the bad-DAG ID.
	lm := p.Modules[1]
	for _, fx := range res2.Module.DAGFixups {
		w := uint32(p.Code[lm.CodeBase+fx].Imm)
		if trace.DAGID(w) != trace.BadDAGID {
			t.Errorf("probe ID = %d, want bad-DAG", trace.DAGID(w))
		}
	}
}

func TestProbationOnly(t *testing.T) {
	// An uninstrumented module never pulls its thread off probation.
	m := &module.Module{
		Name: "plain",
		Code: []isa.Instr{
			{Op: isa.MOVI, A: 1, Imm: 0},
			{Op: isa.SYS, Imm: isa.SysExit},
		},
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 2, Exported: true}},
	}
	p, rt, _ := newRT(t, Config{NumBuffers: 2})
	p.Load(m) // not instrumented
	p.StartMain(0)
	vm.RunProcess(p, 10000)
	if len(rt.free) != 2 {
		t.Errorf("%d free buffers, want 2 (thread never left probation)", len(rt.free))
	}
}

func TestDesperationOverflow(t *testing.T) {
	// More instrumented threads than buffers: the extras share the
	// desperation buffer.
	code := []isa.Instr{
		// main: spawn 3 workers at "work", join all
		{Op: isa.MOVI, A: 8, Imm: 3},
		{Op: isa.LDFN, A: 1, Imm: 1}, // 1 loop head; entry of "work"
		{Op: isa.MOVI, A: 2, Imm: 0},
		{Op: isa.SYS, Imm: isa.SysThreadCreate},
		{Op: isa.MOV, A: 9, B: 0},
		{Op: isa.MOV, A: 1, B: 9},
		{Op: isa.SYS, Imm: isa.SysThreadJoin},
		{Op: isa.ADDI, A: 8, B: 8, Imm: -1},
		{Op: isa.BGT, A: 8, B: 0, Imm: 1},
		{Op: isa.MOVI, A: 1, Imm: 0},
		{Op: isa.SYS, Imm: isa.SysExit},
		{Op: isa.HLT},
		// work: count down from 50
		{Op: isa.MOVI, A: 5, Imm: 50}, // 12
		{Op: isa.ADDI, A: 5, B: 5, Imm: -1},
		{Op: isa.BGT, A: 5, B: 0, Imm: 13},
		{Op: isa.RET},
	}
	m := &module.Module{Name: "many", Code: code,
		Funcs: []module.Func{
			{Name: "main", Entry: 0, End: 12, Exported: true},
			{Name: "work", Entry: 12, End: 16},
		}}
	res := instr(t, m, core.Options{})
	// Main thread takes the only buffer; workers run sequentially
	// (join immediately) but buffers are released on thread exit and
	// reused, so to force desperation use a main thread that holds
	// its buffer plus a tiny pool.
	p, rt, _ := newRT(t, Config{NumBuffers: 1, BufferWords: 64})
	p.Load(res.Module)
	p.StartMain(0)
	vm.RunProcess(p, 1_000_000)
	if rt.Desperations() == 0 {
		t.Error("expected at least one thread in the desperation buffer")
	}
	if p.FatalSignal != 0 || p.ExitCode != 0 {
		t.Errorf("program failed: sig=%s exit=%d", vm.SignalName(p.FatalSignal), p.ExitCode)
	}
}

func TestPolicyParsing(t *testing.T) {
	src := `
# test policy
snap exception *
nosnap exception SIGFPE
snap api
snap hang
snap fatal
suppress 2
`
	pol, err := ParsePolicy(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if !pol.API || !pol.Hang || !pol.Fatal || pol.MaxRepeat != 2 {
		t.Errorf("policy = %+v", pol)
	}
	if !pol.snapOnException(vm.SigSegv) {
		t.Error("SIGSEGV should snap")
	}
	if pol.snapOnException(vm.SigFpe) {
		t.Error("SIGFPE should be excluded")
	}
}

func TestPolicyParseErrors(t *testing.T) {
	for _, src := range []string{
		"snap bogus",
		"suppress x",
		"suppress 0",
		"frobnicate",
		"snap exception",
	} {
		if _, err := ParsePolicy(strings.NewReader(src)); err == nil {
			t.Errorf("policy %q accepted", src)
		}
	}
}

func TestSnapAPISyscall(t *testing.T) {
	data := []byte("checkpoint")
	m := &module.Module{
		Name: "api",
		Code: []isa.Instr{
			{Op: isa.GADDR, A: 1, Imm: 0},
			{Op: isa.MOVI, A: 2, Imm: int32(len(data))},
			{Op: isa.SYS, Imm: isa.SysSnap},
			{Op: isa.MOVI, A: 1, Imm: 0},
			{Op: isa.SYS, Imm: isa.SysExit},
		},
		Data:  data,
		Funcs: []module.Func{{Name: "main", Entry: 0, End: 5, Exported: true}},
	}
	res := instr(t, m, core.Options{})
	p, rt, _ := newRT(t, Config{Policy: DefaultPolicy()})
	p.Load(res.Module)
	p.StartMain(0)
	vm.RunProcess(p, 100000)
	if len(rt.Snaps()) != 1 {
		t.Fatalf("%d snaps", len(rt.Snaps()))
	}
	if got := rt.Snaps()[0].Reason; got != "api checkpoint" {
		t.Errorf("reason = %q", got)
	}
}

func TestSnapSerializationRoundTrip(t *testing.T) {
	res := instr(t, fig2(), core.Options{})
	p, rt, _ := newRT(t, Config{})
	p.Load(res.Module)
	p.StartMain(0)
	vm.RunProcess(p, 100000)
	s := rt.PostMortemSnap()
	var buf strings.Builder
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := snap.Load(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.RuntimeID != s.RuntimeID || len(got.Buffers) != len(s.Buffers) ||
		len(got.Modules) != len(s.Modules) {
		t.Error("snap did not round-trip")
	}
	mi, rel, ok := got.ModuleForDAG(1)
	if !ok || mi.Name != "fig2" || rel != 1 {
		t.Errorf("ModuleForDAG(1) = %+v, %d, %v", mi, rel, ok)
	}
}
