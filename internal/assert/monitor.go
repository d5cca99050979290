package assert

import (
	"errors"
	"fmt"

	"securetlb/internal/tlb"
)

// SetMapper is the capability exposing a design's VPN-to-set mapping. The
// monitor validates set placement with the design's own mapping — never a
// private re-derivation — so checker and design cannot disagree (a
// power-of-two geometry masks, others reduce modulo, and a future
// randomized-index design will hash; all are equally checkable).
type SetMapper interface {
	SetIndex(vpn tlb.VPN) int
}

// Partitioner is the capability exposing a design's fill-confinement policy:
// the way range [lo, hi) that installs (and therefore evictions) caused by
// asid must stay inside. Declaring it binds the partition-confinement and
// no-cross-domain-eviction assertions.
type Partitioner interface {
	FillRange(asid tlb.ASID) (lo, hi int)
}

// RandomFillPredictor is the capability exposing a random-fill engine's next
// decision without perturbing it. Declaring it binds the
// rng-stream-integrity and no-fill-on-secure-miss assertions.
type RandomFillPredictor interface {
	PredictNextRandomFill(asid tlb.ASID, vpn tlb.VPN) (tlb.VPN, bool, error)
}

// KeyedIndexer is the capability exposing a randomized-index design's
// cipher-keyed (ASID, VPN)-to-set mapping and its re-key machinery. A keyed
// design deliberately does not declare SetMapper — its placement is not a
// function of the VPN alone — so declaring this capability replaces the
// monitor's unkeyed set dispatch AND binds the rekey-completeness assertion.
type KeyedIndexer interface {
	// KeyedSetIndex is the design's own keyed set mapping.
	KeyedSetIndex(asid tlb.ASID, vpn tlb.VPN) int
	// IndexKey returns the current epoch key.
	IndexKey() uint64
	// RekeyEpoch returns the re-key generation counter; it advances exactly
	// when a re-key happens.
	RekeyEpoch() uint64
	// PendingRekey reports, side-effect-free, whether the next lookup will
	// re-key before its probe.
	PendingRekey() bool
	// PredictNextKey replays the key stream's next draw on a clone of the
	// generator: the key a fault-free re-key would install.
	PredictNextKey() uint64
}

// AutoFlusher is the capability of designs that flush themselves from inside
// Translate — the RI TLB's re-key flush and the FS TLB's switch/secure-exit
// flush. PendingAutoFlush predicts, side-effect-free, whether the next
// lookup for (asid, vpn) begins with a design-initiated full flush, letting
// the transition-shape assertions switch to their flush-then-install arm.
type AutoFlusher interface {
	PendingAutoFlush(asid tlb.ASID, vpn tlb.VPN) bool
}

// switchFlusher is the capability of designs that flush on a CSR-delivered
// context switch (the FS TLB). Declaring it arms the monitor's ObserveASID
// post-check and the per-access arm of flush-completeness: after any access,
// only the current context's entries may be resident.
type switchFlusher interface {
	PendingSwitchFlush(next tlb.ASID) bool
}

// victimReporter reports whether a security design currently has a victim
// designated (SP and RF both expose HasVictim).
type victimReporter interface {
	HasVictim() bool
}

// generational is the array's write generation (tlb's array core declares
// it): while Generation is unchanged, so is every entry SnapshotAppend
// would copy. It lets the monitor reuse its last validated snapshot as the
// next access's pre-snapshot instead of copying and comparing the array.
type generational interface {
	Generation() uint64
}

// fillStarver reports whether a random-fill engine may currently starve
// (skip) a prescribed fill for legitimate reasons — the RF design's
// ablation-only lazy mode. While it may, the suppressed-fill arm of the
// rng-stream-integrity assertion stands down.
type fillStarver interface {
	RandomFillMayStarve() bool
}

// Options configures a Monitor.
type Options struct {
	// CrossCheck binds the translation-cross-check assertion: every
	// successful translation is re-walked against the walker and the
	// physical page numbers compared. It costs one extra page walk per
	// access but is the only check that catches a corrupted walk whose
	// wrong result the TLB installed faithfully.
	CrossCheck bool
	// Tap, when non-nil, observes every derived event as it is emitted,
	// before the assertions run. Taps are per-monitor observers and are
	// deliberately not inherited by CloneWith clones (which may run
	// concurrently on worker machines).
	Tap func(Event)
}

// Monitor wraps an inspectable TLB design, derives the typed event stream
// from every instrumented operation, and evaluates the design's assertion
// binding over it. It implements tlb.TLB, tlb.SecureTLB (forwarding to the
// inner design, or no-ops for a non-secure design, so a wrapped TLB drops
// into any machine unchanged) and tlb.Cloner.
//
// Monitor deliberately does NOT implement tlb.FastTranslator or
// tlb.CounterReader: the trace-replay VM promotes designs exposing those to
// its register-level fast path, which would bypass the snapshotting here.
// Their absence is what forces assertion-enabled runs back to the
// interpreter, exactly as the invariant checker always has.
type Monitor struct {
	inner  tlb.TLB
	insp   tlb.Inspectable
	walker tlb.Walker
	opts   Options
	design string

	// Capability views of the inner design; nil when not declared.
	sec     tlb.SecureTLB
	part    Partitioner
	pred    RandomFillPredictor
	vic     victimReporter
	starver fillStarver
	keyed   KeyedIndexer
	auto    AutoFlusher
	swf     switchFlusher
	aobs    tlb.ASIDObserver
	gen     generational

	setIdx              func(tlb.VPN) int
	entries, ways, sets int

	binding Binding
	// pre and post are the current operation's snapshots, held in two
	// buffers that trade places: last, the previous access's post-snapshot,
	// and spare. pre is a fresh copy in spare or, when nothing wrote the
	// array since, last itself; post then goes to whichever buffer pre is
	// not, and becomes last.
	pre, post   []tlb.EntrySnapshot
	last, spare []tlb.EntrySnapshot
	events      []Event

	// Inductive evaluation state (see Translate). last is the base while
	// baseOK: the most recent post-access snapshot the whole binding passed
	// on. lastGen and baseRegs are the design's write generation and
	// security registers when it was taken, maxes its per-set stamp summary.
	baseOK   bool
	lastGen  uint64
	baseRegs secRegs
	maxes    []setMax
	// full reports that the current access runs the whole-array forms of
	// the array-wide assertions; otherwise they check only changed, the
	// slots where post may differ from the base (the drifted slots, then
	// the access's own diffs).
	full     bool
	regs     secRegs
	drift    [4]int
	ndrift   int
	changed  [8]int
	nchanged int

	// acc and fl are the reused per-operation assertion contexts. They live
	// in the Monitor so passing their address to assertion functions does
	// not allocate.
	acc Access
	fl  FlushInfo

	// pending holds a violation found on a path that cannot return an error
	// (the flush operations); it is surfaced by the next Translate.
	pending error

	// Checks counts completed per-access validations, for tests and reports.
	Checks uint64
}

var (
	_ tlb.SecureTLB = (*Monitor)(nil)
	_ tlb.Cloner    = (*Monitor)(nil)
)

// Wrap returns a Monitor around t with the binding BindingFor derives from
// t's capabilities. The walker is used only for the optional translation
// cross-check and may be nil when opts.CrossCheck is false. It fails for
// designs that do not expose their array (tlb.Inspectable).
func Wrap(t tlb.TLB, walker tlb.Walker, opts Options) (*Monitor, error) {
	insp, ok := t.(tlb.Inspectable)
	if !ok {
		return nil, fmt.Errorf("assert: %s does not support inspection", t.Name())
	}
	if opts.CrossCheck && walker == nil {
		return nil, errors.New("assert: cross-check requires a walker")
	}
	m := &Monitor{
		inner:   t,
		insp:    insp,
		walker:  walker,
		opts:    opts,
		design:  t.Name(),
		entries: t.Entries(),
		ways:    t.Ways(),
	}
	m.sets = m.entries / m.ways
	m.sec, _ = t.(tlb.SecureTLB)
	m.part, _ = t.(Partitioner)
	m.pred, _ = t.(RandomFillPredictor)
	m.vic, _ = t.(victimReporter)
	m.starver, _ = t.(fillStarver)
	m.keyed, _ = t.(KeyedIndexer)
	m.auto, _ = t.(AutoFlusher)
	m.swf, _ = t.(switchFlusher)
	m.aobs, _ = t.(tlb.ASIDObserver)
	m.gen, _ = t.(generational)
	if sm, ok := t.(SetMapper); ok {
		m.setIdx = sm.SetIndex
	} else {
		sets := uint64(m.sets)
		m.setIdx = func(vpn tlb.VPN) int { return int(uint64(vpn) % sets) }
	}
	m.binding = BindingFor(t, opts.CrossCheck)
	m.last = make([]tlb.EntrySnapshot, 0, m.entries)
	m.spare = make([]tlb.EntrySnapshot, 0, m.entries)
	m.maxes = make([]setMax, m.sets)
	m.events = make([]Event, 0, 8)
	m.acc.m = m
	m.fl.m = m
	return m, nil
}

// Unwrap returns the design inside a Monitor, or t itself when it is not
// wrapped. Campaign code that needs the concrete design (e.g. to reseed the
// RF TLB per trial) must go through Unwrap so it works identically with
// checking on or off.
func Unwrap(t tlb.TLB) tlb.TLB {
	if m, ok := t.(*Monitor); ok {
		return m.inner
	}
	return t
}

// Inner returns the wrapped design.
func (m *Monitor) Inner() tlb.TLB { return m.inner }

// Binding returns the assertion binding in effect for the wrapped design.
func (m *Monitor) Binding() Binding { return m.binding }

// secRegs are the design registers the array-wide assertions read: the
// security registers (sec-bit-confinement) and a keyed design's index key
// (set-index-consistency). The monitor reads them once per operation —
// campaign code may write them on the inner design directly (Unwrap) — and
// runs the whole-array checks whenever they differ from the base's.
type secRegs struct {
	victim    tlb.ASID
	hasVictim bool // a secure design reports a victim designated (victimReporter)
	sbase     tlb.VPN
	ssize     uint64
	key       uint64
}

// readRegs reads the inner design's registers.
func (m *Monitor) readRegs() secRegs {
	var r secRegs
	if m.sec != nil {
		r.victim = m.sec.Victim()
		r.sbase, r.ssize = m.sec.SecureRegion()
		r.hasVictim = m.vic != nil && m.vic.HasVictim()
	}
	if m.keyed != nil {
		r.key = m.keyed.IndexKey()
	}
	return r
}

// domain derives the security domain of (asid, vpn) from the registers.
func (r *secRegs) domain(asid tlb.ASID, vpn tlb.VPN) Domain {
	if !r.hasVictim {
		return DomainNone
	}
	if asid != r.victim {
		return DomainAttacker
	}
	if r.ssize > 0 && vpn >= r.sbase && uint64(vpn-r.sbase) < r.ssize {
		return DomainSecure
	}
	return DomainVictim
}

// setMax summarizes one set of the base for the array-wide stamp bounds: the
// largest stamp of a valid entry, and whether the set holds one.
type setMax struct {
	stamp uint64
	valid bool
}

// indexFor is the monitor's set dispatch: the design's keyed mapping when it
// declares one, its plain SetMapper (or the modulo fallback) otherwise.
func (m *Monitor) indexFor(asid tlb.ASID, vpn tlb.VPN) int {
	if m.keyed != nil {
		return m.keyed.KeyedSetIndex(asid, vpn)
	}
	return m.setIdx(vpn)
}

// emit appends an event to the current operation's stream and feeds the tap.
func (m *Monitor) emit(e Event) {
	m.events = append(m.events, e)
	if m.opts.Tap != nil {
		m.opts.Tap(e)
	}
}

// Access is the assertion context for one Translate: the request, its
// Result, the derived events, the pre/post array snapshots and the diff set.
// The same Access value is reused across calls — assertions must not retain
// it or any slice obtained from it past their return.
type Access struct {
	ASID   tlb.ASID
	VPN    tlb.VPN
	Domain Domain
	Res    tlb.Result
	Err    error

	// PredVPN/PredFill hold the random-fill engine's predicted next
	// decision; PredOK reports that the design declared a predictor.
	PredVPN  tlb.VPN
	PredFill bool
	PredOK   bool

	// AutoFlush reports that the design predicted a design-initiated full
	// flush at the start of this access (AutoFlusher capability): the
	// transition-shape assertions switch to their flush-then-install arm.
	AutoFlush bool

	// PreEpoch/PostEpoch and PreKey/PostKey frame a keyed design's re-key
	// state around the access; PredKey is the key a fault-free re-key would
	// install. KeyedOK reports that the design declared a KeyedIndexer.
	PreEpoch, PostEpoch uint64
	PreKey, PostKey     uint64
	PredKey             uint64
	KeyedOK             bool

	m      *Monitor
	diffs  [4]int // flat indices that changed, capped (one is already the legal max)
	ndiffs int

	// Per-access facts, derived once after the access: the set the design's
	// mapping indexes for the request and for a random fill's D', and the
	// flat indices of their valid post-access entries (-1 when absent; both
	// -1 for D' when there was no random fill).
	reqSet, reqIdx, randSet, randIdx int
}

// Pre returns the pre-access array snapshot, set-major.
func (a *Access) Pre() []tlb.EntrySnapshot { return a.m.pre }

// Post returns the post-access array snapshot, set-major.
func (a *Access) Post() []tlb.EntrySnapshot { return a.m.post }

// Events returns the event stream derived from this access.
func (a *Access) Events() []Event { return a.m.events }

// Diffs returns the flat indices whose snapshot changed, capped at 4 (any
// count past the legal maximum of one is already a violation; the extras
// only improve messages).
func (a *Access) Diffs() []int { return a.diffs[:a.ndiffs] }

// NDiffs returns the (capped) number of changed slots.
func (a *Access) NDiffs() int { return a.ndiffs }

// findPost returns the flat index of the valid entry for (asid, vpn) in set
// s of the post-access snapshot, or -1. Callers pass the set the design's
// own mapping indexes.
func (a *Access) findPost(s int, asid tlb.ASID, vpn tlb.VPN) int {
	m := a.m
	for w := 0; w < m.ways; w++ {
		i := s*m.ways + w
		e := &m.post[i]
		if e.Valid && e.ASID == asid && e.VPN == vpn {
			return i
		}
	}
	return -1
}

// fillRange returns the way range [lo, hi) a fill from asid must target: the
// design's declared partition when it has one, the whole set otherwise.
func (a *Access) fillRange(asid tlb.ASID) (lo, hi int) {
	if a.m.part != nil {
		return a.m.part.FillRange(asid)
	}
	return 0, a.m.ways
}

// lruIndex recomputes the replacement policy's victim choice over the
// pre-access snapshot: the first invalid way in [lo, hi) of set s, else the
// way with the smallest stamp. Returned as a flat index.
func (a *Access) lruIndex(s, lo, hi int) int {
	m := a.m
	victim, oldest := lo, ^uint64(0)
	for w := lo; w < hi; w++ {
		e := &m.pre[s*m.ways+w]
		if !e.Valid {
			return s*m.ways + w
		}
		if e.Stamp < oldest {
			victim, oldest = w, e.Stamp
		}
	}
	return s*m.ways + victim
}

// failf builds a Violation for the named assertion.
func (a *Access) failf(assertion, format string, args ...any) error {
	return &Violation{Assertion: assertion, Design: a.m.design, Detail: fmt.Sprintf(format, args...)}
}

// FlushInfo is the assertion context for one flush operation. Like Access it
// is reused across calls and must not be retained.
type FlushInfo struct {
	// Kind is one of the four flush kinds.
	Kind Kind
	// ASID/VPN are the flushed key's components (meaningful per Kind).
	ASID tlb.ASID
	VPN  tlb.VPN

	m *Monitor
}

// Post returns the post-flush array snapshot, set-major.
func (f *FlushInfo) Post() []tlb.EntrySnapshot { return f.m.post }

// failf builds a flush-completeness Violation.
func (f *FlushInfo) failf(format string, args ...any) error {
	return &Violation{Assertion: NameFlushCompleteness, Design: f.m.design, Detail: fmt.Sprintf(format, args...)}
}

// Translate implements tlb.TLB: it forwards the access to the wrapped
// design, derives the event stream, and evaluates the binding over the
// transition. A detected violation is returned in place of the design's own
// (nil) error.
//
// The array-wide assertions are evaluated inductively against the base,
// the most recent post-snapshot the whole binding passed on (see the
// package doc). A violation drops that base, as do the flushes, register writes
// and context switches below, so the next access checks the whole array;
// so does an access that begins with a design-initiated flush, whose diff
// or drift fills its cap, or whose registers differ from the base's.
func (m *Monitor) Translate(asid tlb.ASID, vpn tlb.VPN) (tlb.Result, error) {
	if p := m.pending; p != nil {
		m.pending = nil
		return tlb.Result{}, p
	}
	// The base holds again only once this access's post-snapshot passes.
	full := !m.baseOK
	m.baseOK = false
	m.ndrift = 0
	postBuf := m.last
	if !full && m.gen != nil && m.gen.Generation() == m.lastGen {
		m.pre, postBuf = m.last, m.spare
	} else {
		m.pre = m.insp.SnapshotAppend(m.spare[:0])
		if !full {
			full = m.findDrift()
		}
	}

	a := &m.acc
	a.ASID, a.VPN = asid, vpn
	a.PredVPN, a.PredFill, a.PredOK = 0, false, false
	a.AutoFlush, a.KeyedOK = false, false
	if m.pred != nil {
		// Predict the Random Fill Engine's draw before the access so a
		// biased or stuck RNG is exposed by comparing prediction and
		// outcome.
		a.PredVPN, a.PredFill, _ = m.pred.PredictNextRandomFill(asid, vpn)
		a.PredOK = true
	}
	if m.auto != nil {
		a.AutoFlush = m.auto.PendingAutoFlush(asid, vpn)
	}
	if m.keyed != nil {
		// Frame the re-key state before the access: the epoch and key now,
		// and the key a fault-free re-key would draw next. Comparing the
		// post-access key against the prediction exposes a stuck key
		// register even though the array flush itself went through.
		a.PreEpoch, a.PreKey = m.keyed.RekeyEpoch(), m.keyed.IndexKey()
		a.PredKey = m.keyed.PredictNextKey()
		a.KeyedOK = true
	}

	res, err := m.inner.Translate(asid, vpn)
	m.post = m.insp.SnapshotAppend(postBuf[:0])
	m.last, m.spare = m.post, m.pre
	var postGen uint64
	if m.gen != nil {
		postGen = m.gen.Generation()
	}
	m.Checks++
	m.regs = m.readRegs()
	if m.keyed != nil {
		a.PostEpoch, a.PostKey = m.keyed.RekeyEpoch(), m.regs.key
	}

	a.Res, a.Err = res, err
	a.Domain = m.regs.domain(asid, vpn)
	a.ndiffs = 0
	for i := range m.post {
		if m.post[i] != m.pre[i] {
			if a.ndiffs == len(a.diffs) {
				break
			}
			a.diffs[a.ndiffs] = i
			a.ndiffs++
		}
	}
	a.reqSet = m.indexFor(asid, vpn)
	a.reqIdx = a.findPost(a.reqSet, asid, vpn)
	a.randSet, a.randIdx = -1, -1
	if res.RandomFilled {
		a.randSet = m.indexFor(asid, res.RandomVPN)
		a.randIdx = a.findPost(a.randSet, asid, res.RandomVPN)
	}
	m.full = full || a.AutoFlush || a.ndiffs == len(a.diffs) || m.regs != m.baseRegs
	if !m.full {
		// The slots where post may differ from the base: the drift, then
		// the access's own diffs.
		n := copy(m.changed[:], m.drift[:m.ndrift])
		m.nchanged = n + copy(m.changed[n:], a.diffs[:a.ndiffs])
	}
	m.deriveEvents(a)

	for i := range m.binding.Assertions {
		as := &m.binding.Assertions[i]
		if as.Check == nil {
			continue
		}
		if v := as.Check(a); v != nil {
			return res, v
		}
	}
	m.accept(postGen)
	return res, err
}

// findDrift compares a fresh pre-snapshot with the base in last, recording
// the slots that differ in drift. It reports whether there are more than
// drift holds, in which case the access runs the whole-array checks.
func (m *Monitor) findDrift() bool {
	for i := range m.pre {
		if m.pre[i] != m.last[i] {
			if m.ndrift == len(m.drift) {
				return true
			}
			m.drift[m.ndrift] = i
			m.ndrift++
		}
	}
	return false
}

// touched reports whether set s holds a changed slot.
func (m *Monitor) touched(s int) bool {
	lo := s * m.ways
	for _, i := range m.changed[:m.nchanged] {
		if i >= lo && i < lo+m.ways {
			return true
		}
	}
	return false
}

// accept makes the access's post-snapshot, now last, the base once the
// whole binding passed on it, and refreshes the stamp summary for every
// set (after a full check) or for the sets the access touched. A
// changed slot now holding the newest stamp of its set — a hit's refresh,
// a fill — raises the set's summary in place; any other change rescans the
// set, as the slot may have held its maximum.
func (m *Monitor) accept(postGen uint64) {
	m.lastGen = postGen
	m.baseRegs = m.regs
	m.baseOK = true
	if m.full {
		for s := range m.maxes {
			m.summarize(s)
		}
		return
	}
	for _, i := range m.changed[:m.nchanged] {
		mx := &m.maxes[i/m.ways]
		if e := &m.last[i]; e.Valid && (!mx.valid || e.Stamp >= mx.stamp) {
			*mx = setMax{stamp: e.Stamp, valid: true}
		} else {
			m.summarize(i / m.ways)
		}
	}
}

// summarize recomputes set s's stamp summary from last, the new base.
func (m *Monitor) summarize(s int) {
	var mx setMax
	for _, e := range m.last[s*m.ways : (s+1)*m.ways] {
		if e.Valid && (!mx.valid || e.Stamp > mx.stamp) {
			mx = setMax{stamp: e.Stamp, valid: true}
		}
	}
	m.maxes[s] = mx
}

// deriveEvents translates one access's Result into the typed event stream.
func (m *Monitor) deriveEvents(a *Access) {
	m.events = m.events[:0]
	if a.AutoFlush {
		m.emit(Event{Kind: KindAutoFlush, ASID: a.ASID, VPN: a.VPN, Set: -1, Way: -1, Domain: a.Domain})
	}
	set := a.reqSet
	switch {
	case a.Err != nil:
		m.emit(Event{Kind: KindError, ASID: a.ASID, VPN: a.VPN, Set: set, Way: -1, Domain: a.Domain})
	case a.Res.Hit:
		way := -1
		if a.reqIdx >= 0 {
			way = a.reqIdx % m.ways
		}
		m.emit(Event{Kind: KindHit, ASID: a.ASID, VPN: a.VPN, PPN: a.Res.PPN, Set: set, Way: way, Domain: a.Domain})
	default:
		m.emit(Event{Kind: KindMiss, ASID: a.ASID, VPN: a.VPN, PPN: a.Res.PPN, Set: set, Way: -1, Domain: a.Domain})
		switch {
		case a.Res.RandomFilled:
			// The RF TLB reports at most one eviction per access: the one
			// its D' install caused.
			rset, rway := a.randSet, -1
			if i := a.randIdx; i >= 0 {
				rset, rway = i/m.ways, i%m.ways
			}
			m.emitEvict(a, rset, rway)
			m.emit(Event{Kind: KindRandomFill, ASID: a.ASID, VPN: a.Res.RandomVPN, Set: rset, Way: rway, Domain: m.regs.domain(a.ASID, a.Res.RandomVPN)})
		case a.Res.Filled:
			way := -1
			if a.reqIdx >= 0 {
				way = a.reqIdx % m.ways
			}
			m.emitEvict(a, set, way)
			m.emit(Event{Kind: KindFill, ASID: a.ASID, VPN: a.VPN, PPN: a.Res.PPN, Set: set, Way: way, Domain: a.Domain})
		default:
			m.emit(Event{Kind: KindNoFill, ASID: a.ASID, VPN: a.VPN, PPN: a.Res.PPN, Set: set, Way: -1, Domain: a.Domain})
		}
	}
}

// emitEvict emits the eviction event for an install at (set, way), carrying
// the displaced translation's identity and domain.
func (m *Monitor) emitEvict(a *Access, set, way int) {
	if !a.Res.Evicted {
		return
	}
	m.emit(Event{
		Kind: KindEvict, ASID: a.Res.EvictedASID, VPN: a.Res.EvictedVPN,
		Set: set, Way: way, Domain: m.regs.domain(a.Res.EvictedASID, a.Res.EvictedVPN),
	})
}

// recordPending stores the first violation found on an error-less path; it
// is surfaced by the next Translate.
func (m *Monitor) recordPending(v error) {
	if v != nil && m.pending == nil {
		m.pending = v
	}
}

// afterFlush re-snapshots the array, emits the flush event and evaluates the
// binding's flush assertions, recording the first violation as pending. The
// next access runs the whole-array checks.
func (m *Monitor) afterFlush(kind Kind, asid tlb.ASID, vpn tlb.VPN) {
	m.baseOK = false
	m.post = m.insp.SnapshotAppend(m.spare[:0])
	m.spare = m.post
	m.regs = m.readRegs()
	m.events = m.events[:0]
	m.emit(Event{Kind: kind, ASID: asid, VPN: vpn, Set: -1, Way: -1, Domain: m.regs.domain(asid, vpn)})
	f := &m.fl
	f.Kind, f.ASID, f.VPN = kind, asid, vpn
	for i := range m.binding.Assertions {
		as := &m.binding.Assertions[i]
		if as.CheckFlush == nil {
			continue
		}
		if v := as.CheckFlush(f); v != nil {
			m.recordPending(v)
			return
		}
	}
}

// Probe implements tlb.TLB.
func (m *Monitor) Probe(asid tlb.ASID, vpn tlb.VPN) bool { return m.inner.Probe(asid, vpn) }

// FlushAll implements tlb.TLB.
func (m *Monitor) FlushAll() {
	m.inner.FlushAll()
	m.afterFlush(KindFlushAll, 0, 0)
}

// FlushASID implements tlb.TLB.
func (m *Monitor) FlushASID(asid tlb.ASID) {
	m.inner.FlushASID(asid)
	m.afterFlush(KindFlushASID, asid, 0)
}

// FlushPage implements tlb.TLB.
func (m *Monitor) FlushPage(asid tlb.ASID, vpn tlb.VPN) bool {
	r := m.inner.FlushPage(asid, vpn)
	m.afterFlush(KindFlushPage, asid, vpn)
	return r
}

// FlushPageAllASIDs implements tlb.TLB.
func (m *Monitor) FlushPageAllASIDs(vpn tlb.VPN) bool {
	r := m.inner.FlushPageAllASIDs(vpn)
	m.afterFlush(KindFlushPageAll, 0, vpn)
	return r
}

// Stats implements tlb.TLB.
func (m *Monitor) Stats() tlb.Stats { return m.inner.Stats() }

// ResetStats implements tlb.TLB.
func (m *Monitor) ResetStats() { m.inner.ResetStats() }

// Entries implements tlb.TLB.
func (m *Monitor) Entries() int { return m.inner.Entries() }

// Ways implements tlb.TLB.
func (m *Monitor) Ways() int { return m.inner.Ways() }

// Name implements tlb.TLB. The inner name is kept verbatim so wrapped and
// unwrapped runs render identical tables.
func (m *Monitor) Name() string { return m.design }

// SetVictim implements tlb.SecureTLB, forwarding to the inner design when it
// is secure and doing nothing otherwise (the SA TLB ignores the security
// CSRs exactly the same way). The register write is emitted as an event
// either way — the stream reflects what software requested — and the next
// access runs the whole-array checks.
func (m *Monitor) SetVictim(asid tlb.ASID) {
	m.baseOK = false
	if m.sec != nil {
		m.sec.SetVictim(asid)
	}
	m.events = m.events[:0]
	m.emit(Event{Kind: KindSetVictim, ASID: asid, Set: -1, Way: -1})
}

// SetSecureRegion implements tlb.SecureTLB.
func (m *Monitor) SetSecureRegion(sbase tlb.VPN, ssize uint64) {
	m.baseOK = false
	if m.sec != nil {
		m.sec.SetSecureRegion(sbase, ssize)
	}
	m.events = m.events[:0]
	m.emit(Event{Kind: KindSetSecureRegion, VPN: sbase, Size: ssize, Set: -1, Way: -1})
}

// Victim implements tlb.SecureTLB.
func (m *Monitor) Victim() tlb.ASID {
	if m.sec != nil {
		return m.sec.Victim()
	}
	return 0
}

// SecureRegion implements tlb.SecureTLB.
func (m *Monitor) SecureRegion() (tlb.VPN, uint64) {
	if m.sec != nil {
		return m.sec.SecureRegion()
	}
	return 0, 0
}

// ObserveASID implements tlb.ASIDObserver, forwarding the context switch to
// the inner design when it observes switches and doing nothing otherwise (so
// a wrapped design sees exactly the CSR traffic an unwrapped one would). A
// forwarded switch makes the next access run the whole-array checks.
// When the design declares a switch flush (switchFlusher), the monitor
// predicts it before forwarding and verifies afterwards that the flush was
// complete — the SIMF semantics say the erasure must happen at the switch
// itself, not at some later access. Violations found here surface through
// the next Translate, like the flush assertions.
func (m *Monitor) ObserveASID(next tlb.ASID) {
	if m.aobs == nil {
		return
	}
	pending := m.swf != nil && m.swf.PendingSwitchFlush(next)
	m.aobs.ObserveASID(next)
	m.baseOK = false
	m.events = m.events[:0]
	m.emit(Event{Kind: KindContextSwitch, ASID: next, Set: -1, Way: -1})
	if !pending {
		return
	}
	m.post = m.insp.SnapshotAppend(m.spare[:0])
	m.spare = m.post
	for i := range m.post {
		if e := &m.post[i]; e.Valid {
			m.recordPending(&Violation{
				Assertion: NameFlushCompleteness, Design: m.design,
				Detail: fmt.Sprintf("context switch to asid %d left asid %d vpn %#x resident (dropped switch flush)", next, e.ASID, e.VPN),
			})
			return
		}
	}
}

// CloneWith implements tlb.Cloner: the inner design is cloned onto the new
// walker and wrapped in a fresh Monitor with the same configuration (minus
// the Tap — see Options.Tap), so per-worker machine clones keep checking
// independently.
func (m *Monitor) CloneWith(w tlb.Walker) tlb.TLB {
	cl, ok := m.inner.(tlb.Cloner)
	if !ok {
		return nil
	}
	inner := cl.CloneWith(w)
	if inner == nil {
		return nil
	}
	n, err := Wrap(inner, w, Options{CrossCheck: m.opts.CrossCheck})
	if err != nil {
		return nil
	}
	return n
}
