package obs

import (
	"encoding/json"
	"io"
)

// LedgerSchema versions the explain/ledger artifact's JSON shape.
const LedgerSchema = "pageforge-ledger/v1"

// LedgerKind is one merge-lifecycle transition of a physical frame (or of
// one guest mapping of it).
type LedgerKind uint8

const (
	LKScanned     LedgerKind = iota // candidate entered Algorithm 1
	LKUnstable                      // inserted into the unstable tree
	LKStable                        // frame promoted into the stable tree
	LKMerged                        // guest page remapped onto a duplicate frame
	LKMergeFailed                   // a positive match failed the final verify
	LKChurned                       // hash key changed since last pass; dropped
	LKCoWBroken                     // guest write gave the mapping a private copy
	LKQuarantined                   // UE policy withdrew the frame from hardware
	LKEvicted                       // mapping released (teardown, churn)
	LKBallooned                     // mapping reclaimed by the balloon under pressure
	LKShed                          // a whole scan pass shed by backpressure
	LKRestored                      // crash-recovery marker: replay resumes here
)

var ledgerKindNames = [...]string{
	"scanned", "unstable", "stable", "merged", "merge_failed", "churned",
	"cow_broken", "quarantined", "evicted", "ballooned", "shed", "restored",
}

// String names the kind for reports and JSON.
func (k LedgerKind) String() string {
	if int(k) < len(ledgerKindNames) {
		return ledgerKindNames[k]
	}
	return "unknown"
}

// LedgerCause classifies why scan work was wasted — the attribution axis of
// the efficiency report. CauseNone marks productive transitions.
type LedgerCause uint8

const (
	CauseNone                LedgerCause = iota
	CauseContentChurn                    // page contents changed between passes
	CauseChecksumInstability             // match found, final verify lost the race
	CauseFaultRetry                      // hardware aborted on an uncorrectable error
	CauseBackpressureShed                // pressure ladder paused scanning
)

var ledgerCauseNames = [...]string{
	"none", "content_churn", "checksum_instability", "fault_retry", "backpressure_shed",
}

// String names the cause for reports and JSON.
func (c LedgerCause) String() string {
	if int(c) < len(ledgerCauseNames) {
		return ledgerCauseNames[c]
	}
	return "unknown"
}

// LedgerNoPFN marks events that are not about a specific frame (pass-level
// sheds, restore markers).
const LedgerNoPFN = ^uint64(0)

// LedgerEvent is one recorded transition. Seq is the global emission order
// and Pass the convergence pass (or ConvergePasses+interval during
// measurement) it happened in; both are stamped by Append. PFN is the frame
// the event is about; for merges and CoW breaks Arg carries the destination
// frame, so a frame's history alone reconstructs where its mappings went.
// VM/GFN name the guest mapping involved (VM is -1 when unknown).
type LedgerEvent struct {
	Seq   uint64
	Pass  int
	Kind  LedgerKind
	Cause LedgerCause
	VM    int32
	GFN   uint64
	PFN   uint64
	Arg   uint64
}

// fileEvent is the event as a ledger artifact stores it: kind and cause by
// name, not enum ordinal.
func (e LedgerEvent) fileEvent() LedgerFileEvent {
	out := LedgerFileEvent{Seq: e.Seq, Pass: e.Pass, Kind: e.Kind.String(), VM: int(e.VM), GFN: e.GFN, PFN: e.PFN, Arg: e.Arg}
	if e.Cause != CauseNone {
		out.Cause = e.Cause.String()
	}
	return out
}

// MarshalJSON renders the event the way a ledger artifact stores it.
func (e LedgerEvent) MarshalJSON() ([]byte, error) {
	return json.Marshal(e.fileEvent())
}

// DefaultLedgerCapacity bounds the event ring when NewLedger is given no
// size.
const DefaultLedgerCapacity = 1 << 17

// Ledger is one run's merge-lifecycle event log: a bounded ring of
// LedgerEvents in emission order, with drop counting when it wraps. Like a
// Registry it is per-run and unsynchronized — the platform owns it on the
// run goroutine, and parallel scan workers never touch it directly (their
// events ride per-shard accumulators that the scanner flushes in canonical
// shard order at the join, so the event sequence is deterministic at any
// worker count). A nil *Ledger is the disabled state: every method no-ops.
type Ledger struct {
	buf     []LedgerEvent
	next    int
	full    bool
	seq     uint64
	pass    int
	dropped uint64
}

// NewLedger returns a ledger retaining the last capacity events
// (DefaultLedgerCapacity if capacity <= 0).
func NewLedger(capacity int) *Ledger {
	if capacity <= 0 {
		capacity = DefaultLedgerCapacity
	}
	return &Ledger{buf: make([]LedgerEvent, 0, capacity)}
}

// Enabled reports whether the ledger records; nil-safe, so seams guard
// event construction with one branch.
func (l *Ledger) Enabled() bool { return l != nil }

// SetPass sets the pass stamp for subsequently appended events.
func (l *Ledger) SetPass(p int) {
	if l != nil {
		l.pass = p
	}
}

// Append records one event, stamping its sequence number and current pass.
func (l *Ledger) Append(e LedgerEvent) {
	if l == nil {
		return
	}
	l.seq++
	e.Seq = l.seq
	e.Pass = l.pass
	if len(l.buf) < cap(l.buf) {
		l.buf = append(l.buf, e)
		return
	}
	l.dropped++
	l.buf[l.next] = e
	l.next++
	if l.next == len(l.buf) {
		l.next = 0
	}
	l.full = true
}

// AppendAll records a batch of buffered events in order — the flush path
// for per-shard scan accumulators.
func (l *Ledger) AppendAll(evs []LedgerEvent) {
	if l == nil {
		return
	}
	for _, e := range evs {
		l.Append(e)
	}
}

// Dropped reports how many events the ring has overwritten.
func (l *Ledger) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// Len reports how many events the ring currently retains.
func (l *Ledger) Len() int {
	if l == nil {
		return 0
	}
	return len(l.buf)
}

// Events returns the retained events in emission order.
func (l *Ledger) Events() []LedgerEvent {
	if l == nil {
		return nil
	}
	if !l.full {
		out := make([]LedgerEvent, len(l.buf))
		copy(out, l.buf)
		return out
	}
	out := make([]LedgerEvent, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	out = append(out, l.buf[:l.next]...)
	return out
}

// FrameHistory replays the retained events touching one frame — either as
// the subject (PFN) or as the destination of a merge or CoW copy (Arg) — in
// emission order. This is what `pageforge explain -pfn` renders.
func (l *Ledger) FrameHistory(pfn uint64) []LedgerEvent {
	var out []LedgerEvent
	for _, e := range l.Events() {
		if e.PFN == pfn || ((e.Kind == LKMerged || e.Kind == LKCoWBroken) && e.Arg == pfn) {
			out = append(out, e)
		}
	}
	return out
}

// Attribution aggregates the retained events by kind and wasted-work cause.
type Attribution struct {
	Events  uint64            `json:"events"`
	Dropped uint64            `json:"dropped"`
	Kinds   map[string]uint64 `json:"kinds,omitempty"`
	Causes  map[string]uint64 `json:"causes,omitempty"`
}

// Attribution computes the kind/cause breakdown of the retained events.
func (l *Ledger) Attribution() Attribution {
	at := Attribution{Dropped: l.Dropped()}
	evs := l.Events()
	if len(evs) == 0 {
		return at
	}
	at.Kinds = make(map[string]uint64)
	for _, e := range evs {
		at.Events++
		at.Kinds[e.Kind.String()]++
		if e.Cause != CauseNone {
			if at.Causes == nil {
				at.Causes = make(map[string]uint64)
			}
			at.Causes[e.Cause.String()]++
		}
	}
	return at
}

// --- Crash-checkpoint state --------------------------------------------------

// LedgerState is the ledger's full checkpointable state: plain data, no
// maps, byte-deterministic under the snapshot codec.
type LedgerState struct {
	Events  []LedgerEvent // emission order
	Seq     uint64
	Pass    int
	Dropped uint64
}

// State captures the ledger for a checkpoint.
func (l *Ledger) State() LedgerState {
	if l == nil {
		return LedgerState{}
	}
	return LedgerState{Events: l.Events(), Seq: l.seq, Pass: l.pass, Dropped: l.dropped}
}

// SetState rewinds the ledger to a checkpointed state.
func (l *Ledger) SetState(st LedgerState) {
	if l == nil {
		return
	}
	l.buf = l.buf[:0]
	l.next = 0
	l.full = false
	l.seq = st.Seq
	l.pass = st.Pass
	l.dropped = st.Dropped
	l.buf = append(l.buf, st.Events...)
}

// --- JSON export -------------------------------------------------------------

// WriteJSON serializes the full ledger with its attribution summary.
func (l *Ledger) WriteJSON(w io.Writer) error {
	events := l.Events()
	out := LedgerFile{Schema: LedgerSchema, Attribution: l.Attribution(), Events: make([]LedgerFileEvent, len(events))}
	for i, e := range events {
		out.Events[i] = e.fileEvent()
	}
	return json.NewEncoder(w).Encode(out)
}
