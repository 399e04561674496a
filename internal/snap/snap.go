// Package snap defines the TraceBack snapshot file: the collection of
// raw trace buffers and process metadata from which reconstruction
// rebuilds an execution history (paper §3.6). A snap records the
// process and host identity, the loaded-module list with checksums
// and the DAG ID ranges actually in use (after any load-time
// rebasing), the trigger, and every trace buffer's contents.
package snap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// BufferKind classifies a dumped buffer.
type BufferKind uint8

const (
	BufMain BufferKind = iota
	BufStatic
	BufProbation
	BufDesperation
)

func (k BufferKind) String() string {
	switch k {
	case BufMain:
		return "main"
	case BufStatic:
		return "static"
	case BufProbation:
		return "probation"
	case BufDesperation:
		return "desperation"
	}
	return fmt.Sprintf("bufkind(%d)", uint8(k))
}

// ModuleInfo describes one module load as reconstruction needs it:
// the checksum keys the matching mapfile, ActualDAGBase maps DAG IDs
// in trace records back to module-relative IDs, and CodeBase maps
// exception addresses back into the module.
type ModuleInfo struct {
	Name          string `json:"name"`
	Checksum      string `json:"checksum"`
	ActualDAGBase uint32 `json:"dagBase"`
	DAGCount      uint32 `json:"dagCount"`
	CodeBase      uint32 `json:"codeBase"`
	CodeLen       uint32 `json:"codeLen"`
	Unloaded      bool   `json:"unloaded,omitempty"`
	BadDAG        bool   `json:"badDag,omitempty"` // runtime exhausted the ID space for this module
	// DataBase and DataDump capture the module's data segment at
	// snap time (the paper's §3.6 memory dump, letting the viewer
	// display variable values).
	DataBase uint32 `json:"dataBase,omitempty"`
	DataDump []byte `json:"dataDump,omitempty"`
}

// BufferDump is one trace buffer's raw contents.
type BufferDump struct {
	Kind BufferKind `json:"kind"`
	// OwnerTID is the thread using the buffer at snap time (0: free).
	OwnerTID uint32 `json:"ownerTid"`
	// LastPtr is the word index of the last written record, when the
	// runtime knows it (live thread TLS, or saved at orderly release).
	// LastKnown is false after abrupt termination: reconstruction
	// must fall back to the committed-sub-buffer scan (paper §3.2).
	LastPtr   uint32 `json:"lastPtr"`
	LastKnown bool   `json:"lastKnown"`
	// CommittedSub is the index of the last committed sub-buffer from
	// the buffer header, and SubWords the sub-buffer size in words.
	CommittedSub uint32 `json:"committedSub"`
	SubWords     uint32 `json:"subWords"`
	// Raw holds the buffer words, little-endian.
	Raw []byte `json:"raw"`
}

// Words decodes the raw bytes into trace words.
func (b *BufferDump) Words() []uint32 {
	out := make([]uint32, len(b.Raw)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b.Raw[i*4:])
	}
	return out
}

// SetWords encodes words into Raw.
func (b *BufferDump) SetWords(words []uint32) {
	b.Raw = make([]byte, len(words)*4)
	for i, w := range words {
		binary.LittleEndian.PutUint32(b.Raw[i*4:], w)
	}
}

// NondetLog is the optional record-and-replay section: the encoded
// nondeterminism log (trace.EncodeNondet words, little-endian) of the
// run that produced the snap, plus the provenance internal/replay
// needs to rebuild the same world. The section is format-versioned
// and optional — snaps written before it existed decode with Nondet
// nil and replay is simply unavailable for them.
type NondetLog struct {
	// V is the section format version (bump on layout change).
	V int `json:"v"`
	// Scenario names the world builder that produced the run (a
	// scenario.Builders entry, or "petshop" for the managed runtime).
	Scenario string `json:"scenario"`
	// Wrap marks a run under the tiny-buffer wrap-stress runtime
	// config; Trial marks a fault-campaign-style harvest (service
	// heartbeat + per-role post-mortem) rather than the scenario's
	// own Collect path.
	Wrap  bool `json:"wrap,omitempty"`
	Trial bool `json:"trial,omitempty"`
	// Interval is the quantum-checkpoint period the recording used.
	Interval uint64 `json:"interval"`
	// Raw holds the encoded log words, little-endian.
	Raw []byte `json:"raw"`
}

// Words decodes the raw bytes into log words.
func (n *NondetLog) Words() []uint32 {
	out := make([]uint32, len(n.Raw)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(n.Raw[i*4:])
	}
	return out
}

// SetWords encodes words into Raw.
func (n *NondetLog) SetWords(words []uint32) {
	n.Raw = make([]byte, len(words)*4)
	for i, w := range words {
		binary.LittleEndian.PutUint32(n.Raw[i*4:], w)
	}
}

// Snap is a complete snapshot.
type Snap struct {
	Host      string `json:"host"`
	Process   string `json:"process"`
	PID       int    `json:"pid"`
	RuntimeID uint64 `json:"runtimeId"`
	// Reason is the trigger description ("exception SIGSEGV", "api",
	// "hang", "group", "external").
	Reason     string `json:"reason"`
	TriggerTID uint32 `json:"triggerTid,omitempty"`
	Signal     int    `json:"signal,omitempty"`
	FaultAddr  uint64 `json:"faultAddr,omitempty"`
	Time       uint64 `json:"time"`

	Modules []ModuleInfo `json:"modules"`
	Buffers []BufferDump `json:"buffers"`

	// Partners lists peer runtime IDs this runtime exchanged RPCs
	// with; the distributed reconstructor uses it to find related
	// snaps.
	Partners []uint64 `json:"partners,omitempty"`

	// Nondet, when present, carries the recorded nondeterminism log
	// of the run that produced this snap (see NondetLog); tbreplay
	// re-executes from it. Optional: old snaps load unchanged.
	Nondet *NondetLog `json:"nondet,omitempty"`
}

// ModuleForDAG resolves a (rebased) DAG ID to its module and the
// module-relative ID, per the actual ranges recorded at snap time.
func (s *Snap) ModuleForDAG(id uint32) (ModuleInfo, uint32, bool) {
	for _, mi := range s.Modules {
		if mi.BadDAG {
			continue
		}
		if id >= mi.ActualDAGBase && id < mi.ActualDAGBase+mi.DAGCount {
			return mi, id - mi.ActualDAGBase, true
		}
	}
	return ModuleInfo{}, 0, false
}

// ModuleForAddr resolves an absolute code address to its module.
func (s *Snap) ModuleForAddr(addr uint64) (ModuleInfo, bool) {
	for _, mi := range s.Modules {
		if addr >= uint64(mi.CodeBase) && addr < uint64(mi.CodeBase)+uint64(mi.CodeLen) {
			return mi, true
		}
	}
	return ModuleInfo{}, false
}

// Load reads a snap: one JSON document, optionally followed by
// whitespace, as Save writes it. Bytes after the document fail with
// ErrTrailingData and a document cut short with io.ErrUnexpectedEOF.
func Load(r io.Reader) (*Snap, error) { return load(r, 0) }

// load is Load with a hint of the document's size.
func load(r io.Reader, size int) (*Snap, error) {
	// bytes.Buffer reads until it has MinRead bytes spare, so room for
	// the whole document plus MinRead reads it without growing.
	doc := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := doc.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	s, err := decode(doc.Bytes())
	if err != nil {
		return nil, fmt.Errorf("snap: %w", err)
	}
	return s, nil
}
