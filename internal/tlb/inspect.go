package tlb

// This file is the introspection and fault-injection surface of the TLB
// designs: a read-only snapshot of the array (for the security-assertion
// monitor in internal/assert), a controlled mutation entry point (for the
// deterministic fault campaigns in internal/faultinject), and a per-design
// FaultHook intercepting the microarchitectural events a hardware fault
// would perturb — fills, LRU touches and Random Fill Engine draws.
//
// The hooks are designed to be free when unused: a design pays one nil
// pointer check per intercepted event, and nothing at all on designs that
// were never armed. Clones (CloneWith) deliberately do not inherit hooks —
// fault injection is per-machine state, armed by the campaign runner on each
// worker's machine for exactly one trial at a time.

// EntrySnapshot is one TLB entry. It is the storage type of every
// inspectable design's array, so SnapshotAppend is a plain copy of the
// array and CorruptEntry mutates the live entry. Field order packs the
// struct into 32 bytes. Lookups do not scan these entries: the array core
// keeps a packed shadow of each valid way's VPN and ASID for the tag match
// and per-set recency lists for the victim choice, both derived from the
// entries and re-derived by every core writer (see array.go), so a lookup
// reads an entry only on a tag hit.
type EntrySnapshot struct {
	VPN VPN
	PPN PPN
	// Stamp is the LRU timestamp; larger is more recent.
	Stamp uint64
	ASID  ASID
	Valid bool
	// Sec is the RF TLB's Sec bit (paper §4.2.2; always false elsewhere).
	Sec bool
}

// Inspectable is implemented by designs whose array state can be observed
// (runtime invariant checking) and perturbed (fault injection). The
// single-array designs — SetAssoc, SP, RF, RandIdx and FlushOnSwitch —
// implement it through their shared array core; Coalesced, whose block
// entries are not EntrySnapshots, does not.
type Inspectable interface {
	// SnapshotAppend appends the current array contents to dst in set-major
	// order (set 0 ways 0..W-1, then set 1, ...) — one copy of the design's
	// contiguous backing array — and returns the extended slice. Invalid
	// ways are included, so the result always holds exactly Entries()
	// elements beyond len(dst).
	SnapshotAppend(dst []EntrySnapshot) []EntrySnapshot
	// CorruptEntry applies f in place to the valid entry at (set, way),
	// modelling an in-array bit error. It reports whether an entry was
	// corrupted; invalid ways and out-of-range coordinates are left
	// untouched. f may change any field: the design re-derives the way's
	// match shadow and its set's recency order from the corrupted entry, so
	// later lookups and fills see exactly what the array now holds.
	CorruptEntry(set, way int, f func(*EntrySnapshot)) bool
	// SetFaultHook installs h as the design's fault-injection hook, or
	// removes it when h is nil.
	SetFaultHook(h *FaultHook)
}

// FillAction is a FaultHook's verdict on a pending fill.
type FillAction int

const (
	// FillProceed installs the fill normally.
	FillProceed FillAction = iota
	// FillDrop loses the array write: the entry is not installed, but the
	// design still reports the fill as performed (a lost valid-bit write —
	// the control logic believes the fill happened).
	FillDrop
	// FillDuplicate installs the fill into the chosen way and a second way
	// of the same set (partition, for the SP TLB), modelling a decoder fault
	// that asserts two way-enables at once.
	FillDuplicate
)

// FaultHook intercepts microarchitectural events for deterministic fault
// injection. Every field is optional; a nil field leaves its event
// untouched. Hooks run synchronously inside Translate, so they must not call
// back into the TLB's mutating methods (CorruptEntry is safe).
type FaultHook struct {
	// OnAccess runs at the start of every Translate, before the lookup.
	OnAccess func()
	// OnFill is consulted with the chosen victim coordinates before a fill
	// (requested or random) is installed.
	OnFill func(set, way int) FillAction
	// OnLRUTouch is consulted when a hit would refresh the stamp of the
	// entry at (set, way); returning false leaves the stamp stuck.
	OnLRUTouch func(set, way int) bool
	// OnRNGDraw may bias a Random Fill Engine draw: it receives the window
	// size n and the fair draw in [0, n) and returns the value actually
	// used. Out-of-window returns are deliberately not clamped — a stuck
	// high bit in the RFE's random register produces exactly that.
	OnRNGDraw func(n, draw uint64) uint64
	// OnRekey may substitute the key an RI TLB re-key installs: it receives
	// the outgoing key and the key-stream draw and returns the key actually
	// loaded. Returning old models a stuck key register — the array flushes
	// but the mapping does not change.
	OnRekey func(old, next uint64) uint64
	// OnAutoFlush is consulted before a design-initiated full flush (the FS
	// TLB's switch/secure-exit flush); returning false drops the flush, a
	// lost invalidation strobe.
	OnAutoFlush func() bool
}

// fillAction consults h for the pending fill at (set, way); a nil hook (the
// common case) proceeds.
func (h *FaultHook) fillAction(set, way int) FillAction {
	if h == nil || h.OnFill == nil {
		return FillProceed
	}
	return h.OnFill(set, way)
}

// touchAllowed reports whether the stamp refresh of a hit at (set, way) goes
// through.
func (h *FaultHook) touchAllowed(set, way int) bool {
	if h == nil || h.OnLRUTouch == nil {
		return true
	}
	return h.OnLRUTouch(set, way)
}

// access fires the OnAccess event.
func (h *FaultHook) access() {
	if h != nil && h.OnAccess != nil {
		h.OnAccess()
	}
}

// draw applies the OnRNGDraw bias to a fair draw.
func (h *FaultHook) draw(n, v uint64) uint64 {
	if h == nil || h.OnRNGDraw == nil {
		return v
	}
	return h.OnRNGDraw(n, v)
}

// rekey applies the OnRekey substitution to a re-key's key-stream draw.
func (h *FaultHook) rekey(old, next uint64) uint64 {
	if h == nil || h.OnRekey == nil {
		return next
	}
	return h.OnRekey(old, next)
}

// autoFlushAllowed reports whether a design-initiated full flush goes
// through.
func (h *FaultHook) autoFlushAllowed() bool {
	if h == nil || h.OnAutoFlush == nil {
		return true
	}
	return h.OnAutoFlush()
}

var (
	_ Inspectable = (*SetAssoc)(nil)
	_ Inspectable = (*SP)(nil)
	_ Inspectable = (*RF)(nil)
	_ Inspectable = (*RandIdx)(nil)
	_ Inspectable = (*FlushOnSwitch)(nil)
)
