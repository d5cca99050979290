package tlb

// SetAssoc is the standard set-associative TLB of the paper ("SA TLB"),
// with true LRU replacement within each set. Entries are tagged with the
// process ID (ASID), so a hit requires both the page number and the ASID to
// match — this alone is what lets the standard SA TLB defend the paper's 10
// hit-between-processes vulnerability types (Table 4).
//
// A fully-associative TLB ("FA TLB") is a SetAssoc with ways == entries; the
// paper's TLB-disabled approximation ("1E") is a SetAssoc with one entry.
type SetAssoc struct {
	plainArray
}

var _ TLB = (*SetAssoc)(nil)

// NewSetAssoc returns an SA TLB with the given capacity and associativity.
// entries must be a positive multiple of ways.
func NewSetAssoc(entries, ways int, walker Walker) (*SetAssoc, error) {
	a, err := newArray("SA", entries, ways, walker)
	if err != nil {
		return nil, err
	}
	return &SetAssoc{plainArray{a}}, nil
}

// NewFullyAssoc returns an FA TLB: a single set spanning all entries.
func NewFullyAssoc(entries int, walker Walker) (*SetAssoc, error) {
	return NewSetAssoc(entries, entries, walker)
}

// NewSingleEntry returns the paper's "1E" configuration, the closest
// realisable approximation to disabling the TLB.
func NewSingleEntry(walker Walker) (*SetAssoc, error) {
	return NewSetAssoc(1, 1, walker)
}

// Translate implements TLB.
func (t *SetAssoc) Translate(asid ASID, vpn VPN) (Result, error) {
	var res Result
	err := t.translate(asid, vpn, &res)
	return res, err
}

// TranslateCycles implements FastTranslator.
func (t *SetAssoc) TranslateCycles(asid ASID, vpn VPN) (uint64, error) {
	var res Result
	err := t.translate(asid, vpn, &res)
	return res.Cycles, err
}

func (t *SetAssoc) translate(asid ASID, vpn VPN, res *Result) error {
	t.hook.access()
	t.stats.Lookups++
	s := t.geom.setIndex(vpn)
	t.clock++
	if w := t.match(s, asid, vpn); w >= 0 {
		res.PPN, res.Hit, res.Cycles = t.hit(s, w), true, hitCycles
		return nil
	}
	return t.demandFill(s, 0, t.geom.ways, asid, vpn, res)
}

// CloneWith implements Cloner.
func (t *SetAssoc) CloneWith(w Walker) TLB {
	return &SetAssoc{plainArray{t.array.clone(w)}}
}
