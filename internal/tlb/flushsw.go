package tlb

// FlushOnSwitch is the flush-based secure TLB ("FS TLB"), a SIMF-style
// design point: a standard set-associative array (identical lookup, LRU and
// fill behaviour to the SA TLB) that invalidates its whole contents
//
//   - on every ASID/context switch, and
//   - when the victim process leaves its secure region (a secure-region
//     exit), so even a same-process continuation cannot probe what the
//     secure code left behind.
//
// The context switch is observed at the moment the OS writes the process-ID
// CSR (ObserveASID, wired from the CPU and the trace VM), matching the
// single-instruction-multiple-flush semantics: by the time the incoming
// process issues its first access, nothing of the previous context remains.
// Harnesses that drive Translate directly without CSR writes are covered by
// a fallback — a lookup under a new ASID performs the same flush first.
//
// No cross-context state survives a switch, so the design needs neither
// partitioning nor randomization: its security argument is erasure.
type FlushOnSwitch struct {
	plainArray
	secureRegs

	cur        ASID // current context, valid when hasCur
	hasCur     bool
	lastSecure bool // the context's previous access was inside the secure region
}

var (
	_ SecureTLB      = (*FlushOnSwitch)(nil)
	_ FastTranslator = (*FlushOnSwitch)(nil)
	_ CounterReader  = (*FlushOnSwitch)(nil)
	_ ASIDObserver   = (*FlushOnSwitch)(nil)
)

// NewFlushOnSwitch returns an FS TLB with the given capacity and
// associativity.
func NewFlushOnSwitch(entries, ways int, walker Walker) (*FlushOnSwitch, error) {
	a, err := newArray("FS", entries, ways, walker)
	if err != nil {
		return nil, err
	}
	return &FlushOnSwitch{plainArray: plainArray{a}}, nil
}

// autoFlush performs the design's own full invalidation (switch or
// secure-region exit). The fault hook may drop it — a lost flush strobe —
// which is exactly the flushsw-flush-dropped injection site.
func (t *FlushOnSwitch) autoFlush() {
	if t.hook.autoFlushAllowed() {
		t.array.FlushAll()
	}
}

// ObserveASID implements ASIDObserver: a context switch flushes the array
// before the incoming process can issue a single access.
func (t *FlushOnSwitch) ObserveASID(asid ASID) {
	if t.hasCur && asid == t.cur {
		return
	}
	if t.hasCur {
		t.autoFlush()
	}
	t.cur, t.hasCur, t.lastSecure = asid, true, false
}

// Translate implements TLB.
func (t *FlushOnSwitch) Translate(asid ASID, vpn VPN) (Result, error) {
	var res Result
	err := t.translate(asid, vpn, &res)
	return res, err
}

// TranslateCycles implements FastTranslator.
func (t *FlushOnSwitch) TranslateCycles(asid ASID, vpn VPN) (uint64, error) {
	var res Result
	err := t.translate(asid, vpn, &res)
	return res.Cycles, err
}

func (t *FlushOnSwitch) translate(asid ASID, vpn VPN, res *Result) error {
	t.hook.access()
	t.stats.Lookups++
	// Fallback switch detection for harnesses without CSR writes; a no-op
	// when ObserveASID already saw this context.
	t.ObserveASID(asid)
	sec := t.secure(asid, vpn)
	if t.lastSecure && !sec {
		t.autoFlush()
	}
	t.lastSecure = sec
	s := t.geom.setIndex(vpn)
	t.clock++
	hit, victim := findOrVictim(t.sets[s], asid, vpn)
	if hit >= 0 {
		res.PPN, res.Hit, res.Cycles = t.hit(&t.sets[s][hit], s, hit), true, hitCycles
		return nil
	}
	return t.demandFill(s, victim, 0, t.geom.ways, asid, vpn, res)
}

// FlushAll implements TLB. An external full flush also resets the
// context-tracking state: campaign trials reset through FlushAll, and the
// switch/exit bookkeeping must be a pure function of the trial's own
// accesses for sharded and serial runs to stay bit-identical.
func (t *FlushOnSwitch) FlushAll() {
	t.array.FlushAll()
	t.hasCur = false
	t.lastSecure = false
}

// CloneWith implements Cloner.
func (t *FlushOnSwitch) CloneWith(w Walker) TLB {
	n := *t
	n.array = t.array.clone(w)
	return &n
}
