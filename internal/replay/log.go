// Package replay re-executes a snapped run from its recorded
// nondeterminism log — the record-and-replay line (rr, iReplayer)
// grafted onto TraceBack's deterministic VM. Recording captures every
// decision the VM makes that is not a pure function of the initial
// world state (scheduling checkpoints, asynchronous signals, kills,
// unloads, RPC transport verdicts and delivery order); replay
// rebuilds the same world, installs a Driver that re-fires the
// logged perturbations as the SOLE nondeterminism source, and checks
// every re-observed decision against the log. The run either
// reproduces the original byte for byte (Verify) or stops with a
// machine-readable Divergence — there is no silent middle ground.
package replay

import (
	"fmt"

	"traceback/internal/snap"
	"traceback/internal/trace"
)

// DefaultInterval is the quantum-checkpoint period: one NDQuantum
// record per this many scheduling quanta. Smaller catches divergence
// earlier; larger shrinks the log. 64 matches the VM's instruction
// slice — roughly one checkpoint per 4096 instructions.
const DefaultInterval = 64

// ManagedScenario is the scenario name recorded for managed-runtime
// (mvm PetShop) trials, which replay through the managed path rather
// than a scenario.Builders entry.
const ManagedScenario = "petshop"

// Log is a decoded nondeterminism recording plus the provenance
// needed to rebuild the world it came from.
type Log struct {
	// Scenario names the world builder (a scenario.Builders name, or
	// ManagedScenario for the managed runtime).
	Scenario string
	// Wrap marks a tiny-buffer (wrap-stress) runtime config; Trial a
	// fault-campaign-style harvest (see HarvestTrial).
	Wrap  bool
	Trial bool
	// Interval is the checkpoint period the recording used.
	Interval uint64
	// Events is the recorded stream, in observation order.
	Events []trace.NondetRecord
}

// Section encodes the log as the optional snap section.
func (l *Log) Section() *snap.NondetLog {
	sec := &snap.NondetLog{
		V:        1,
		Scenario: l.Scenario,
		Wrap:     l.Wrap,
		Trial:    l.Trial,
		Interval: l.Interval,
	}
	sec.SetWords(trace.EncodeNondet(l.Events))
	return sec
}

// Attach embeds the log into every snap of a harvest, so each one is
// independently replayable.
func (l *Log) Attach(snaps []*snap.Snap) {
	sec := l.Section()
	for _, s := range snaps {
		s.Nondet = sec
	}
}

// FromSnap decodes the recording embedded in s. Snaps written before
// the section existed (or harvested with recording off) have none.
func FromSnap(s *snap.Snap) (*Log, error) {
	if s.Nondet == nil {
		return nil, fmt.Errorf("replay: snap %s/%s carries no recording", s.Process, s.Reason)
	}
	return FromSection(s.Nondet)
}

// FromSection decodes a snap's nondet section.
func FromSection(sec *snap.NondetLog) (*Log, error) {
	if sec.V != 1 {
		return nil, fmt.Errorf("replay: unknown recording version %d", sec.V)
	}
	events, err := trace.DecodeNondet(sec.Words())
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	interval := sec.Interval
	if interval == 0 {
		interval = DefaultInterval
	}
	return &Log{
		Scenario: sec.Scenario,
		Wrap:     sec.Wrap,
		Trial:    sec.Trial,
		Interval: interval,
		Events:   events,
	}, nil
}

// StrippedBytes serializes a snap with its nondet section removed —
// the byte-identity currency of replay verification. The recording is
// provenance about the run, not state of it; a replayed run's OWN
// recording is checked by strict log conformance instead, so the
// section is excluded from the byte comparison. Encoding cannot fail,
// so the error is always nil.
func StrippedBytes(s *snap.Snap) ([]byte, error) {
	c := *s
	c.Nondet = nil
	return c.Canonical(), nil
}
