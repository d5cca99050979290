// Package assert is the design-agnostic security-assertion layer of the
// simulator, in the spirit of "Translating Common Security Assertions Across
// Processor Designs": the microarchitectural guarantees the paper's security
// claims rest on are written once, as declarative properties over a typed TLB
// event stream, and bound per design by capability instead of hard-coded per
// design.
//
// The Monitor wraps any tlb.Inspectable design and, around every instrumented
// operation, snapshots the array, derives the operation's event stream
// (hit/miss/fill/evict/flush/..., each tagged with set, way and security
// domain) and evaluates the design's assertion binding over it. Which
// assertions bind is decided by the capabilities the design declares:
//
//   - every inspectable design gets the core battery — single-transition,
//     lru-freshness, no-duplicate-tag, set-index-consistency,
//     sec-bit-confinement, stats-tally, flush-completeness;
//   - designs exposing a fill partition (assert.Partitioner, the SP TLB) add
//     partition-confinement and no-cross-domain-eviction;
//   - designs exposing a random-fill prediction (assert.RandomFillPredictor,
//     the RF TLB) add rng-stream-integrity and no-fill-on-secure-miss;
//   - designs exposing a cipher-keyed set mapping (assert.KeyedIndexer, the
//     RI TLB) add rekey-completeness, and the monitor's set dispatch — used
//     by set-index-consistency and every placement check — switches to the
//     design's keyed mapping;
//   - designs that flush themselves mid-stream (assert.AutoFlusher — the RI
//     TLB's re-key flush, the FS TLB's switch and secure-exit flushes) move
//     the transition-shape assertions to a flush-then-install arm, and a
//     switch-flushing design additionally arms flush-completeness's
//     per-access residency check (only the current context may be resident);
//   - translation-cross-check joins any binding when Options.CrossCheck is
//     set.
//
// A new design therefore gets the whole robustness battery — and faultbench
// coverage — for free the moment it implements tlb.Inspectable, and tightens
// its own binding simply by declaring more capabilities.
//
// The array-wide assertions (lru-freshness, no-duplicate-tag,
// set-index-consistency, sec-bit-confinement) are evaluated inductively,
// as properties of state transitions: an assertion that held on the last
// array the monitor validated can only break where the array has changed
// since, so between full checks the monitor examines only the slots an
// access changed, plus any slot that drifted while no access ran (a
// CorruptEntry, a write through the unwrapped design). A whole-array check
// runs on the first access after Wrap or CloneWith, after a monitored
// flush, security-register write or context switch, after any violation,
// on an access that begins with a design-initiated flush, when an access
// or a drift changes more slots than the monitor tracks, and whenever the
// registers the checks read (victim, secure region, whether a victim is
// designated, a keyed design's index key) differ from the validated
// array's. Pass or fail is exactly the whole-array verdict, and a violation
// is always named by the whole-array form, so its detail is the same
// either way. Designs built on tlb's array core also expose a write
// generation that moves whenever an entry may have changed; while it has
// not moved the monitor reuses its last validated snapshot as the next
// access's pre-access snapshot instead of copying and comparing the array.
// The diff of each access's pre- and post-access snapshots is always a
// full compare, so an array write that failed to move the generation still
// surfaces as a changed slot rather than going unchecked.
//
// Violations surface as a *Violation error satisfying
// errors.Is(err, ErrViolation), which the resilient campaign runner
// quarantines under the "invariant" kind. The layer is strictly opt-in: an
// unwrapped design pays nothing, and a wrapped design with a nil event Tap
// allocates nothing per access (benchmark-guarded).
package assert

import (
	"errors"
	"fmt"

	"securetlb/internal/tlb"
)

// ErrViolation is the sentinel matched by errors.Is for every assertion
// violation.
var ErrViolation = errors.New("assert: security assertion violated")

// Violation describes one detected assertion violation.
type Violation struct {
	// Assertion is the name of the violated assertion, e.g. "lru-freshness"
	// or "partition-confinement".
	Assertion string
	// Design is the wrapped TLB's Name().
	Design string
	// Detail is a human-readable description of the violation.
	Detail string
}

// Error implements error.
func (v *Violation) Error() string {
	return fmt.Sprintf("assertion %s violated on %s: %s", v.Assertion, v.Design, v.Detail)
}

// Is reports errors.Is equivalence with ErrViolation.
func (v *Violation) Is(target error) bool { return target == ErrViolation }

// Assertion names, as they appear in Violation.Assertion and faultbench's
// Assertions column.
const (
	NameSingleTransition      = "single-transition"
	NameLRUFreshness          = "lru-freshness"
	NameNoDuplicateTag        = "no-duplicate-tag"
	NameSetIndexConsistency   = "set-index-consistency"
	NameSecBitConfinement     = "sec-bit-confinement"
	NameStatsTally            = "stats-tally"
	NameFlushCompleteness     = "flush-completeness"
	NamePartitionConfinement  = "partition-confinement"
	NameNoCrossDomainEviction = "no-cross-domain-eviction"
	NameRNGStreamIntegrity    = "rng-stream-integrity"
	NameNoFillOnSecureMiss    = "no-fill-on-secure-miss"
	NameRekeyCompleteness     = "rekey-completeness"
	NameTranslationCrossCheck = "translation-cross-check"
)

// Assertion is one declarative property over the TLB event stream. Check
// validates a Translate transition, CheckFlush a flush operation; either may
// be nil when the property does not speak about that operation. Assertions
// are stateless — all state lives in the Access/FlushInfo context — so the
// package-level catalog is shared by every monitor.
type Assertion struct {
	Name string
	// Desc is a one-line statement of the property, for docs and listings.
	Desc       string
	Check      func(a *Access) error
	CheckFlush func(f *FlushInfo) error
}

// Binding is the ordered list of assertions one design must satisfy.
type Binding struct {
	// Design is the bound TLB's Name().
	Design     string
	Assertions []Assertion
}

// Names returns the bound assertion names in evaluation order.
func (b Binding) Names() []string {
	names := make([]string, len(b.Assertions))
	for i, a := range b.Assertions {
		names[i] = a.Name
	}
	return names
}

// BindingFor composes the assertion binding for a design from the
// capabilities it declares. Evaluation order matters for violation naming:
// the transition-shape check runs first, then the design-specific security
// properties (so a partition or RNG escape is named as such rather than as a
// generic LRU anomaly), then the structural array properties, with the
// optional page-table cross-check last (it is the only one that pays an
// extra walk).
func BindingFor(t tlb.TLB, crossCheck bool) Binding {
	b := Binding{Design: t.Name()}
	b.Assertions = append(b.Assertions, SingleTransition)
	if _, ok := t.(RandomFillPredictor); ok {
		b.Assertions = append(b.Assertions, RNGStreamIntegrity, NoFillOnSecureMiss)
	}
	if _, ok := t.(KeyedIndexer); ok {
		// Before the structural checks, so a stuck key or incomplete re-key
		// flush is named as the re-key breach it is rather than a generic
		// placement anomaly.
		b.Assertions = append(b.Assertions, RekeyCompleteness)
	}
	if _, ok := t.(Partitioner); ok {
		// Displacement first, so evicting a resident cross-partition entry
		// is named as the eviction breach it is; installs into empty
		// out-of-range ways then fall to partition-confinement.
		b.Assertions = append(b.Assertions, NoCrossDomainEviction, PartitionConfinement)
	}
	b.Assertions = append(b.Assertions,
		LRUFreshness, NoDuplicateTag, SetIndexConsistency,
		SecBitConfinement, StatsTally, FlushCompleteness)
	if crossCheck {
		b.Assertions = append(b.Assertions, TranslationCrossCheck)
	}
	return b
}

// The assertion catalog. Each is a package-level value so bindings share one
// copy and listings (faultbench -list-assertions, DESIGN.md) can enumerate
// them.
var (
	// SingleTransition: every access performs exactly the one array
	// transition its Result claims — a hit touches only the hit slot and
	// returns the resident PPN, a fill installs exactly the requested
	// translation with a consistent eviction report, a random fill installs
	// exactly the reported D', a buffered no-fill or erroring access leaves
	// the array untouched and never leaks the request into it.
	SingleTransition = Assertion{
		Name:  NameSingleTransition,
		Desc:  "each access performs exactly the one array transition its Result claims",
		Check: checkSingleTransition,
	}

	// LRUFreshness: recency state moves the way true LRU requires — a hit
	// refreshes its entry's stamp to the array-wide maximum, a fill lands on
	// the policy's victim way (first invalid, else least recent, within the
	// design's fill range) with a stamp newer than every resident entry, and
	// per-set stamps always form a strict order.
	LRUFreshness = Assertion{
		Name:  NameLRUFreshness,
		Desc:  "hits refresh LRU stamps, fills take the true LRU victim, per-set stamps stay a strict order",
		Check: checkLRUFreshness,
	}

	// NoDuplicateTag: no (ASID, VPN) translation appears twice in a set.
	NoDuplicateTag = Assertion{
		Name:  NameNoDuplicateTag,
		Desc:  "no (ASID, VPN) tag is duplicated within a set",
		Check: checkNoDuplicateTag,
	}

	// SetIndexConsistency: every valid entry resides in the set its VPN
	// indexes under the design's own set mapping.
	SetIndexConsistency = Assertion{
		Name:  NameSetIndexConsistency,
		Desc:  "every entry resides in the set its VPN indexes",
		Check: checkSetIndexConsistency,
	}

	// SecBitConfinement: Sec bits appear only on entries of the designated
	// victim inside the secure region.
	SecBitConfinement = Assertion{
		Name:  NameSecBitConfinement,
		Desc:  "Sec bits appear only on in-region victim entries",
		Check: checkSecBitConfinement,
	}

	// StatsTally: the hit and miss counters partition the lookup counter.
	StatsTally = Assertion{
		Name:  NameStatsTally,
		Desc:  "hits + misses == lookups",
		Check: checkStatsTally,
	}

	// FlushCompleteness: no entry matching the flushed key survives the
	// flush. On switch-flushing designs (the FS TLB) the per-access arm
	// additionally requires that only the current context's entries are
	// resident after any access — the residue a dropped switch or
	// secure-exit flush would leave behind.
	FlushCompleteness = Assertion{
		Name:       NameFlushCompleteness,
		Desc:       "no surviving entry matches the flushed key",
		Check:      checkFlushResidency,
		CheckFlush: checkFlushCompleteness,
	}

	// RekeyCompleteness (KeyedIndexer designs): a re-key advances the epoch
	// by exactly one, installs exactly the key the key stream prescribes,
	// and erases every pre-re-key entry; outside a re-key the key never
	// moves.
	RekeyCompleteness = Assertion{
		Name:  NameRekeyCompleteness,
		Desc:  "re-keys install the prescribed key and erase every stale entry; the key never moves otherwise",
		Check: checkRekeyCompleteness,
	}

	// PartitionConfinement (Partitioner designs): every install lands inside
	// the filling process's declared way range.
	PartitionConfinement = Assertion{
		Name:  NamePartitionConfinement,
		Desc:  "fills land inside the requester's partition way range",
		Check: checkPartitionConfinement,
	}

	// NoCrossDomainEviction (Partitioner designs): an access never displaces
	// an entry from a slot outside the requester's own partition.
	NoCrossDomainEviction = Assertion{
		Name:  NameNoCrossDomainEviction,
		Desc:  "no access displaces an entry outside the requester's partition",
		Check: checkNoCrossDomainEviction,
	}

	// RNGStreamIntegrity (RandomFillPredictor designs): every random fill
	// installs exactly the D' the engine's PRNG stream prescribes.
	RNGStreamIntegrity = Assertion{
		Name:  NameRNGStreamIntegrity,
		Desc:  "random fills install exactly the D' the RNG stream prescribes",
		Check: checkRNGStreamIntegrity,
	}

	// NoFillOnSecureMiss (RandomFillPredictor designs): a secure-region miss
	// never installs the requested secret translation.
	NoFillOnSecureMiss = Assertion{
		Name:  NameNoFillOnSecureMiss,
		Desc:  "a secure-region miss never installs the requested translation",
		Check: checkNoFillOnSecureMiss,
	}

	// TranslationCrossCheck: the returned PPN matches an independent page
	// walk. The only assertion that catches a corrupted walk whose wrong
	// result the TLB installed faithfully; costs one extra walk per access.
	TranslationCrossCheck = Assertion{
		Name:  NameTranslationCrossCheck,
		Desc:  "returned translations match an independent page-table walk",
		Check: checkTranslationCrossCheck,
	}
)

// Catalog returns every assertion in the library, for listings.
func Catalog() []Assertion {
	return []Assertion{
		SingleTransition, LRUFreshness, NoDuplicateTag, SetIndexConsistency,
		SecBitConfinement, StatsTally, FlushCompleteness,
		PartitionConfinement, NoCrossDomainEviction,
		RNGStreamIntegrity, NoFillOnSecureMiss,
		RekeyCompleteness, TranslationCrossCheck,
	}
}

func checkSingleTransition(a *Access) error {
	m := a.m
	if a.AutoFlush {
		return a.checkAutoFlushTransition()
	}
	if a.Err != nil {
		// Every error path leaves the array untouched.
		if n := a.NDiffs(); n != 0 {
			first := a.diffs[0]
			return a.failf(NameSingleTransition, "erroring access (%v) mutated %d slot(s), first at set %d way %d", a.Err, n, first/m.ways, first%m.ways)
		}
		return nil
	}
	switch {
	case a.Res.Hit:
		idx := a.reqIdx
		if idx < 0 {
			return a.failf(NameSingleTransition, "hit reported for asid %d vpn %#x but the translation is not in the array", a.ASID, a.VPN)
		}
		// Zero diffs (a stuck LRU stamp) is lru-freshness's finding, not a
		// shape violation.
		if n := a.NDiffs(); n > 1 || (n == 1 && a.diffs[0] != idx) {
			return a.failf(NameSingleTransition, "hit on asid %d vpn %#x changed %d slot(s), first at set %d way %d (want only set %d way %d)",
				a.ASID, a.VPN, n, a.diffs[0]/m.ways, a.diffs[0]%m.ways, idx/m.ways, idx%m.ways)
		}
		if a.NDiffs() == 1 {
			p, q := m.pre[idx], m.post[idx]
			p.Stamp = q.Stamp
			if p != q {
				return a.failf(NameSingleTransition, "hit on asid %d vpn %#x changed fields beyond the LRU stamp: %+v -> %+v", a.ASID, a.VPN, m.pre[idx], q)
			}
		}
		if q := m.post[idx]; a.Res.PPN != q.PPN {
			return a.failf(NameSingleTransition, "hit returned ppn %#x but the array holds %#x", a.Res.PPN, q.PPN)
		}
		return nil
	case a.Res.RandomFilled:
		if !a.PredOK {
			return a.failf(NameSingleTransition, "%s reported a random fill but declares no random-fill engine", m.design)
		}
		idx := a.randIdx
		if idx < 0 {
			return a.failf(NameSingleTransition, "random fill reported for vpn %#x but the translation is not in the array (dropped fill)", a.Res.RandomVPN)
		}
		if n := a.NDiffs(); n != 1 || a.diffs[0] != idx {
			return a.failf(NameSingleTransition, "random fill of vpn %#x changed %d slot(s) (want only the D' slot)", a.Res.RandomVPN, n)
		}
		if !a.Res.Filled && a.reqIdx >= 0 {
			return a.failf(NameSingleTransition, "buffered request asid %d vpn %#x leaked into the array alongside its random fill", a.ASID, a.VPN)
		}
		if p := m.pre[idx]; p.Valid && p.ASID == a.ASID && p.VPN == a.Res.RandomVPN {
			// D' collided with a resident entry: a refresh, not an install.
			q := m.post[idx]
			p.Stamp, p.Sec = q.Stamp, q.Sec
			if p != q {
				return a.failf(NameSingleTransition, "random-fill refresh of vpn %#x changed fields beyond stamp and Sec", a.Res.RandomVPN)
			}
			return nil
		}
		return a.checkEvictReport(idx)
	case a.Res.Filled:
		idx := a.reqIdx
		if idx < 0 {
			return a.failf(NameSingleTransition, "fill reported for asid %d vpn %#x but the translation is not in the array (dropped fill)", a.ASID, a.VPN)
		}
		if n := a.NDiffs(); n != 1 || a.diffs[0] != idx {
			first := -1
			if n > 0 {
				first = a.diffs[0]
			}
			return a.failf(NameSingleTransition, "fill of asid %d vpn %#x changed %d slot(s), first at flat index %d (want only %d)", a.ASID, a.VPN, n, first, idx)
		}
		if q := m.post[idx]; q.PPN != a.Res.PPN {
			return a.failf(NameSingleTransition, "fill installed ppn %#x but the access returned %#x", q.PPN, a.Res.PPN)
		}
		return a.checkEvictReport(idx)
	default:
		// No-install access (RF no-fill service, or a skipped random fill):
		// nothing may change, and the requested translation — absent before,
		// or it would have hit — must not have leaked out of the buffer.
		if n := a.NDiffs(); n != 0 {
			return a.failf(NameSingleTransition, "buffered no-fill access mutated %d slot(s)", n)
		}
		if a.reqIdx >= 0 {
			return a.failf(NameSingleTransition, "no-fill buffer leaked asid %d vpn %#x into the array", a.ASID, a.VPN)
		}
		return nil
	}
}

// checkAutoFlushTransition is single-transition's arm for an access the
// design predicted would begin with a design-initiated full flush (a due
// re-key, a fallback context switch, a secure-region exit). The pre-access
// snapshot is then no basis for a diff — the legal transition is "erase
// everything, then at most install the request": a hit is impossible, and
// the post array may hold nothing but the fill this access performed.
func (a *Access) checkAutoFlushTransition() error {
	m := a.m
	if a.Res.Hit {
		return a.failf(NameSingleTransition, "hit on asid %d vpn %#x despite a pending design-initiated flush", a.ASID, a.VPN)
	}
	valid, idx := 0, -1
	for i := range m.post {
		if m.post[i].Valid {
			valid++
			idx = i
		}
	}
	if a.Err != nil || !a.Res.Filled {
		if valid != 0 {
			e := m.post[idx]
			return a.failf(NameSingleTransition, "design-initiated flush left %d entrie(s) resident, e.g. asid %d vpn %#x", valid, e.ASID, e.VPN)
		}
		return nil
	}
	if valid == 0 {
		return a.failf(NameSingleTransition, "fill reported for asid %d vpn %#x after a design-initiated flush but the array is empty (dropped fill)", a.ASID, a.VPN)
	}
	if valid > 1 {
		return a.failf(NameSingleTransition, "access after a design-initiated flush left %d valid entries (want only the requested fill)", valid)
	}
	e := m.post[idx]
	if e.ASID != a.ASID || e.VPN != a.VPN || e.PPN != a.Res.PPN {
		return a.failf(NameSingleTransition, "fill after a design-initiated flush installed asid %d vpn %#x ppn %#x, want asid %d vpn %#x ppn %#x",
			e.ASID, e.VPN, e.PPN, a.ASID, a.VPN, a.Res.PPN)
	}
	if want := m.indexFor(a.ASID, a.VPN); idx/m.ways != want {
		return a.failf(NameSingleTransition, "fill after a design-initiated flush landed in set %d, the design's mapping indexes set %d", idx/m.ways, want)
	}
	return nil
}

// checkEvictReport validates the Result's eviction fields against the
// pre-access occupant of the install slot.
func (a *Access) checkEvictReport(idx int) error {
	p := a.m.pre[idx]
	if p.Valid && (!a.Res.Evicted || a.Res.EvictedVPN != p.VPN || a.Res.EvictedASID != p.ASID) {
		return a.failf(NameSingleTransition, "fill displaced asid %d vpn %#x but reported Evicted=%v vpn %#x asid %d", p.ASID, p.VPN, a.Res.Evicted, a.Res.EvictedVPN, a.Res.EvictedASID)
	}
	if !p.Valid && a.Res.Evicted {
		return a.failf(NameSingleTransition, "fill into an invalid way reported an eviction")
	}
	return nil
}

// The array-wide assertions — lru-freshness's stamp order and stamp
// bounds, no-duplicate-tag, set-index-consistency and sec-bit-confinement —
// each come in two forms with the same verdict. The whole-array form
// scans every entry and builds the Violation. The changed-slot form runs
// between full checks (see Monitor.Translate) and decides pass or fail from
// the slots where post may differ from the base, the last array the whole
// binding passed on: every pair of entries, and every entry, that it skips
// was already checked in the base under the same registers. When it reports a violation the whole-array form runs to name
// it, so details match a whole-array-only monitor byte for byte.

func checkLRUFreshness(a *Access) error {
	m := a.m
	// Per-set stamps must form a strict order (a permutation): two valid
	// entries of one set never share a stamp.
	if m.full || m.changedSlotShares(false) {
		if v := a.stampOrderAll(); v != nil {
			return v
		}
	}
	if a.Err != nil {
		return nil
	}
	if a.AutoFlush {
		// The array was rebuilt from empty this access: there is no
		// pre-based victim choice or stamp ordering left to validate.
		return nil
	}
	switch {
	case a.Res.Hit:
		idx := a.reqIdx
		if idx < 0 {
			return nil // single-transition's finding
		}
		if a.NDiffs() == 0 {
			return a.failf(NameLRUFreshness, "hit on asid %d vpn %#x did not refresh the LRU stamp (stuck LRU)", a.ASID, a.VPN)
		}
		q := m.post[idx]
		if q.Stamp <= m.pre[idx].Stamp {
			return a.failf(NameLRUFreshness, "hit stamp went %d -> %d (not monotonic)", m.pre[idx].Stamp, q.Stamp)
		}
		if m.stampReached(m.post, idx, q.Stamp) {
			if i := firstStampReaching(m.post, idx, q.Stamp); i >= 0 {
				return a.failf(NameLRUFreshness, "hit entry's stamp %d is not the most recent (set %d way %d holds %d)", q.Stamp, i/m.ways, i%m.ways, m.post[i].Stamp)
			}
		}
		return nil
	case a.Res.RandomFilled:
		idx := a.randIdx
		if idx < 0 {
			return nil
		}
		if p := m.pre[idx]; p.Valid && p.ASID == a.ASID && p.VPN == a.Res.RandomVPN {
			return nil // collision refresh, not an install
		}
		return a.checkInstallLRU(idx, 0, m.ways)
	case a.Res.Filled:
		idx := a.reqIdx
		if idx < 0 {
			return nil
		}
		lo, hi := a.fillRange(a.ASID)
		return a.checkInstallLRU(idx, lo, hi)
	}
	return nil
}

// stampOrderAll is the whole-array form of lru-freshness's stamp order.
func (a *Access) stampOrderAll() error {
	m := a.m
	for s := 0; s < m.sets; s++ {
		for w := 0; w < m.ways; w++ {
			p := &m.post[s*m.ways+w]
			if !p.Valid {
				continue
			}
			for w2 := w + 1; w2 < m.ways; w2++ {
				q := &m.post[s*m.ways+w2]
				if q.Valid && p.Stamp == q.Stamp {
					return a.failf(NameLRUFreshness, "set %d ways %d and %d share LRU stamp %d (order is not a permutation)", s, w, w2, p.Stamp)
				}
			}
		}
	}
	return nil
}

// checkInstallLRU validates a fresh install at flat index idx: the policy's
// victim way within [lo, hi) of the install set, and a stamp newer than the
// whole pre-access array.
func (a *Access) checkInstallLRU(idx, lo, hi int) error {
	m := a.m
	s := idx / m.ways
	if want := a.lruIndex(s, lo, hi); idx != want {
		return a.failf(NameLRUFreshness, "fill chose set %d way %d, LRU policy requires way %d", s, idx%m.ways, want%m.ways)
	}
	q := m.post[idx]
	if m.stampReached(m.pre, idx, q.Stamp) {
		if i := firstStampReaching(m.pre, idx, q.Stamp); i >= 0 {
			return a.failf(NameLRUFreshness, "fill stamp %d is not newer than resident stamp %d (set %d way %d)", q.Stamp, m.pre[i].Stamp, i/m.ways, i%m.ways)
		}
	}
	return nil
}

// firstStampReaching is the whole-array form of the stamp bound: the first
// flat index other than skip whose valid entry in snap has a stamp of at
// least stamp, or -1.
func firstStampReaching(snap []tlb.EntrySnapshot, skip int, stamp uint64) int {
	for i := range snap {
		if i != skip && snap[i].Valid && snap[i].Stamp >= stamp {
			return i
		}
	}
	return -1
}

// stampReached reports whether firstStampReaching(snap, skip, stamp) finds
// an entry, where snap is this access's pre- or post-snapshot. Between full
// checks it reads the base's stamp summary for every set neither skip nor a
// changed slot lies in — snap equals the base there — and rescans the rest:
// O(sets + ways) per touched set instead of O(entries).
func (m *Monitor) stampReached(snap []tlb.EntrySnapshot, skip int, stamp uint64) bool {
	if m.full {
		return firstStampReaching(snap, skip, stamp) >= 0
	}
	skipSet := skip / m.ways
	for s := 0; s < m.sets; s++ {
		if s != skipSet && !m.touched(s) {
			if mx := m.maxes[s]; mx.valid && mx.stamp >= stamp {
				return true
			}
			continue
		}
		for i := s * m.ways; i < (s+1)*m.ways; i++ {
			if i != skip && snap[i].Valid && snap[i].Stamp >= stamp {
				return true
			}
		}
	}
	return false
}

// changedSlotShares is the changed-slot form of the two per-set pair
// assertions: it reports whether the valid post-access entry of some
// changed slot shares its (ASID, VPN) tag (tag set) or its stamp (tag
// clear) with another valid way of its set. A pair of unchanged slots was
// already checked in the base.
func (m *Monitor) changedSlotShares(tag bool) bool {
	for _, i := range m.changed[:m.nchanged] {
		p := &m.post[i]
		if !p.Valid {
			continue
		}
		base := i - i%m.ways
		for j := base; j < base+m.ways; j++ {
			q := &m.post[j]
			if j == i || !q.Valid {
				continue
			}
			if tag && q.VPN == p.VPN && q.ASID == p.ASID || !tag && q.Stamp == p.Stamp {
				return true
			}
		}
	}
	return false
}

func checkNoDuplicateTag(a *Access) error {
	m := a.m
	if !m.full && !m.changedSlotShares(true) {
		return nil
	}
	for s := 0; s < m.sets; s++ {
		for w := 0; w < m.ways; w++ {
			p := &m.post[s*m.ways+w]
			if !p.Valid {
				continue
			}
			for w2 := w + 1; w2 < m.ways; w2++ {
				q := &m.post[s*m.ways+w2]
				if q.Valid && p.ASID == q.ASID && p.VPN == q.VPN {
					return a.failf(NameNoDuplicateTag, "asid %d vpn %#x duplicated in set %d ways %d and %d", p.ASID, p.VPN, s, w, w2)
				}
			}
		}
	}
	return nil
}

// misplaced reports whether post[i] is a valid entry outside the set the
// design's mapping indexes for it.
func (m *Monitor) misplaced(i int) bool {
	e := &m.post[i]
	return e.Valid && m.indexFor(e.ASID, e.VPN) != i/m.ways
}

func checkSetIndexConsistency(a *Access) error {
	m := a.m
	if !m.full && !m.anyChanged(m.misplaced) {
		return nil
	}
	for i := range m.post {
		if m.misplaced(i) {
			e := &m.post[i]
			return a.failf(NameSetIndexConsistency, "entry for vpn %#x resides in set %d, indexes set %d", e.VPN, i/m.ways, m.indexFor(e.ASID, e.VPN))
		}
	}
	return nil
}

// anyChanged is the changed-slot form of the per-entry assertions: it
// reports whether bad holds for some changed slot.
func (m *Monitor) anyChanged(bad func(i int) bool) bool {
	for _, i := range m.changed[:m.nchanged] {
		if bad(i) {
			return true
		}
	}
	return false
}

// secBitEscaped reports whether post[i] is a valid entry whose Sec bit the
// registers do not allow: no victim designated, another process's entry,
// or a page outside the secure region.
func (m *Monitor) secBitEscaped(i int) bool {
	e := &m.post[i]
	if !e.Valid || !e.Sec {
		return false
	}
	r := &m.regs
	return !r.hasVictim || e.ASID != r.victim ||
		r.ssize == 0 || e.VPN < r.sbase || uint64(e.VPN-r.sbase) >= r.ssize
}

func checkSecBitConfinement(a *Access) error {
	m := a.m
	if !m.full && !m.anyChanged(m.secBitEscaped) {
		return nil
	}
	for i := range m.post {
		if !m.secBitEscaped(i) {
			continue
		}
		e, r := &m.post[i], &m.regs
		if !r.hasVictim {
			return a.failf(NameSecBitConfinement, "Sec bit set on asid %d vpn %#x but no victim is designated", e.ASID, e.VPN)
		}
		if e.ASID != r.victim {
			return a.failf(NameSecBitConfinement, "Sec bit set on asid %d entry (victim is %d) for vpn %#x", e.ASID, r.victim, e.VPN)
		}
		return a.failf(NameSecBitConfinement, "Sec-bit entry vpn %#x lies outside the secure region [%#x,%#x)", e.VPN, r.sbase, uint64(r.sbase)+r.ssize)
	}
	return nil
}

func checkStatsTally(a *Access) error {
	if s := a.m.inner.Stats(); s.Hits+s.Misses != s.Lookups {
		return a.failf(NameStatsTally, "hits (%d) + misses (%d) != lookups (%d)", s.Hits, s.Misses, s.Lookups)
	}
	return nil
}

func checkFlushCompleteness(f *FlushInfo) error {
	m := f.m
	for i := range m.post {
		e := &m.post[i]
		if !e.Valid {
			continue
		}
		switch f.Kind {
		case KindFlushAll:
			return f.failf("entry for asid %d vpn %#x survived FlushAll", e.ASID, e.VPN)
		case KindFlushASID:
			if e.ASID == f.ASID {
				return f.failf("asid %d entry for vpn %#x survived FlushASID", f.ASID, e.VPN)
			}
		case KindFlushPage:
			if e.ASID == f.ASID && e.VPN == f.VPN {
				return f.failf("asid %d vpn %#x still present after FlushPage", f.ASID, f.VPN)
			}
		case KindFlushPageAll:
			if e.VPN == f.VPN {
				return f.failf("vpn %#x (asid %d) survived FlushPageAllASIDs", f.VPN, e.ASID)
			}
		}
	}
	return nil
}

// checkFlushResidency is flush-completeness's per-access arm; it stands
// down unless the design declares a switch flush. On the FS TLB every
// context switch and secure-region exit erases the whole array, so at no
// point after an access may an entry of another context be resident —
// exactly the residue a dropped flush strobe leaves behind.
func checkFlushResidency(a *Access) error {
	m := a.m
	if m.swf == nil {
		return nil
	}
	for i := range m.post {
		if e := &m.post[i]; e.Valid && e.ASID != a.ASID {
			return a.failf(NameFlushCompleteness, "asid %d vpn %#x resident after an access by asid %d (switch flush incomplete)", e.ASID, e.VPN, a.ASID)
		}
	}
	return nil
}

// checkRekeyCompleteness validates a keyed design's re-key machinery across
// one access: the epoch and key are framed by the monitor before and after
// the inner Translate, with PredKey holding the key a fault-free re-key
// would draw.
func checkRekeyCompleteness(a *Access) error {
	if !a.KeyedOK {
		return nil
	}
	m := a.m
	if a.PostEpoch == a.PreEpoch {
		if a.PostKey != a.PreKey {
			return a.failf(NameRekeyCompleteness, "index key changed %#x -> %#x without an epoch advance", a.PreKey, a.PostKey)
		}
		if a.AutoFlush {
			return a.failf(NameRekeyCompleteness, "due re-key did not happen (epoch stuck at %d)", a.PreEpoch)
		}
		return nil
	}
	if a.PostEpoch != a.PreEpoch+1 {
		return a.failf(NameRekeyCompleteness, "epoch jumped %d -> %d across one access", a.PreEpoch, a.PostEpoch)
	}
	// The re-key must erase everything installed under the old key; the only
	// entry that may be resident is the one this very access installed.
	for i := range m.post {
		e := &m.post[i]
		if e.Valid && !(e.ASID == a.ASID && e.VPN == a.VPN) {
			return a.failf(NameRekeyCompleteness, "asid %d vpn %#x survived the re-key flush", e.ASID, e.VPN)
		}
	}
	if a.PostKey != a.PredKey {
		return a.failf(NameRekeyCompleteness, "re-key installed key %#x, the key stream prescribes %#x (stuck key register)", a.PostKey, a.PredKey)
	}
	return nil
}

func checkPartitionConfinement(a *Access) error {
	if a.Err != nil {
		return nil
	}
	for _, e := range a.Events() {
		if e.Kind != KindFill && e.Kind != KindRandomFill {
			continue
		}
		if e.Way < 0 {
			continue // dropped install: single-transition's finding
		}
		lo, hi := a.m.part.FillRange(e.ASID)
		if e.Way < lo || e.Way >= hi {
			return a.failf(NamePartitionConfinement, "%s for asid %d vpn %#x landed in way %d, outside its partition [%d,%d)", e.Kind, e.ASID, e.VPN, e.Way, lo, hi)
		}
	}
	return nil
}

func checkNoCrossDomainEviction(a *Access) error {
	if a.Err != nil {
		return nil
	}
	m := a.m
	lo, hi := m.part.FillRange(a.ASID)
	for _, i := range a.Diffs() {
		p := &m.pre[i]
		if !p.Valid {
			continue
		}
		if q := &m.post[i]; q.Valid && q.ASID == p.ASID && q.VPN == p.VPN {
			continue // same translation still resident: a refresh, not a displacement
		}
		if w := i % m.ways; w < lo || w >= hi {
			return a.failf(NameNoCrossDomainEviction, "access by asid %d displaced asid %d vpn %#x from way %d, outside the requester's partition [%d,%d)", a.ASID, p.ASID, p.VPN, w, lo, hi)
		}
	}
	return nil
}

func checkRNGStreamIntegrity(a *Access) error {
	if a.Err != nil || !a.PredOK {
		return nil
	}
	if !a.Res.RandomFilled {
		if !a.PredFill || a.Res.Hit {
			return nil
		}
		// The RFE stream prescribes a random fill here and none happened.
		// Legal only when D' is unmapped (footnote 5 mappings missing — the
		// fill is skipped by design) or the lazy ablation engine may starve
		// fills; anything else is a suppressed fill that silently skews the
		// array's occupancy. The monitor's own walk of D' distinguishes the
		// two — it never touches TLB state.
		if a.m.starver != nil && a.m.starver.RandomFillMayStarve() {
			return nil
		}
		if a.m.walker == nil {
			return nil
		}
		if _, _, werr := a.m.walker.Walk(a.ASID, a.PredVPN); werr != nil {
			return nil
		}
		return a.failf(NameRNGStreamIntegrity, "prescribed random fill of mapped vpn %#x was suppressed", a.PredVPN)
	}
	if !a.PredFill {
		return a.failf(NameRNGStreamIntegrity, "random fill of vpn %#x occurred where the RFE stream prescribes none", a.Res.RandomVPN)
	}
	if a.Res.RandomVPN != a.PredVPN {
		return a.failf(NameRNGStreamIntegrity, "random fill chose vpn %#x, the RFE stream prescribes %#x (biased RNG)", a.Res.RandomVPN, a.PredVPN)
	}
	return nil
}

func checkNoFillOnSecureMiss(a *Access) error {
	if a.Err != nil || a.Res.Hit || a.Domain != DomainSecure {
		return nil
	}
	// D and D' may coincide "because of the randomization" (§4.2.1); only
	// then may the requested secure translation legitimately be installed.
	if a.Res.Filled && !(a.Res.RandomFilled && a.Res.RandomVPN == a.VPN) {
		return a.failf(NameNoFillOnSecureMiss, "secure-region miss for asid %d vpn %#x installed the requested translation", a.ASID, a.VPN)
	}
	if !a.Res.Filled && a.reqIdx >= 0 {
		return a.failf(NameNoFillOnSecureMiss, "secure-region request asid %d vpn %#x leaked into the array", a.ASID, a.VPN)
	}
	return nil
}

func checkTranslationCrossCheck(a *Access) error {
	if a.Err != nil {
		return nil
	}
	ppn, _, werr := a.m.walker.Walk(a.ASID, a.VPN)
	if werr != nil {
		return a.failf(NameTranslationCrossCheck, "TLB returned %#x for asid %d vpn %#x but the page walk faults: %v", a.Res.PPN, a.ASID, a.VPN, werr)
	}
	if ppn != a.Res.PPN {
		return a.failf(NameTranslationCrossCheck, "TLB returned ppn %#x for asid %d vpn %#x, page tables say %#x", a.Res.PPN, a.ASID, a.VPN, ppn)
	}
	return nil
}
