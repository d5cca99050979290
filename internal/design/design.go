// Package design is the registry of the TLB designs under evaluation. One
// entry per design holds what the harnesses need to know about it: its
// selector code and name, its constructor, its Table 4 theory, its place in
// the Figure 7 arena and the machine fault sites that belong to it alone.
// secbench, perf, area, faultbench and tlbsim take their design lists,
// selectors, constructors, theory wiring and site ownership from here, so a
// new design is its tlb implementation, one entry and its tests.
package design

import (
	"fmt"
	"slices"
	"strings"

	"securetlb/internal/capacity"
	"securetlb/internal/faultinject"
	"securetlb/internal/model"
	"securetlb/internal/tlb"
)

// ID identifies a registered design: its index in the registry. Later
// designs are appended, so the values never change.
type ID int

const (
	SA ID = iota // standard set-associative
	SP           // Static-Partition: half the ways to the victim
	RF           // Random-Fill
	FA           // fully associative: one set, ways == entries
	RI           // Randomized-Index: keyed set index, periodic re-key
	FS           // Flush-on-Switch: full flush on context switches and secure-region exits
)

// Entry is one design's registry row.
type Entry struct {
	Code string // selector code, "sa"
	Name string // short name, "SA"
	// build is the constructor behind ID.New.
	build func(entries, ways, victimWays int, seed, rekeyFills uint64, w tlb.Walker) (tlb.TLB, error)
	// FullyAssoc marks a one-set design: Table 4 runs it at Ways = Entries.
	FullyAssoc bool
	// Theory is the analytical p1/p2 of §5.3.1, Table 4's theory columns.
	Theory func(model.Vulnerability) (p1, p2 float64)
	// Figure is the Figure 7 label; empty outside the Figure 7 arena.
	Figure string
	// Sites are the machine fault sites meaningful on this design alone.
	Sites []faultinject.Site
}

var registry = [...]Entry{
	SA: {Code: "sa", Name: "SA", Figure: "7a/7d",
		build: func(n, ways, _ int, _, _ uint64, w tlb.Walker) (tlb.TLB, error) {
			return tlb.NewSetAssoc(n, ways, w)
		},
		Theory: oracle(model.DesignASID),
	},
	SP: {Code: "sp", Name: "SP", Figure: "7b/7e",
		build: func(n, ways, victimWays int, _, _ uint64, w tlb.Walker) (tlb.TLB, error) {
			if victimWays == 0 {
				victimWays = ways / 2
			}
			return tlb.NewSP(n, ways, victimWays, w)
		},
		Theory: oracle(model.DesignPartitioned),
	},
	RF: {Code: "rf", Name: "RF", Figure: "7c/7f",
		build: func(n, ways, _ int, seed, _ uint64, w tlb.Walker) (tlb.TLB, error) {
			return tlb.NewRF(n, ways, w, seed)
		},
		Theory: func(v model.Vulnerability) (p1, p2 float64) {
			p1, p2, _ = capacity.RFTheory(v, capacity.DefaultRFParams)
			return p1, p2
		},
		Sites: []faultinject.Site{faultinject.SiteSecFlip, faultinject.SiteRNGBias},
	},
	// FA has no Figure 7 row: its geometries are in every design's sweep.
	// Its theory is the SA oracle, which is not exact for one set: the
	// oracle's "u in a different set" scenario cannot happen, so on the E+T,
	// P+P and Bernstein rows it gives C = 1 where the campaign measures 0.
	FA: {Code: "fa", Name: "FA", FullyAssoc: true,
		build: func(n, _, _ int, _, _ uint64, w tlb.Walker) (tlb.TLB, error) {
			return tlb.NewFullyAssoc(n, w)
		},
		Theory: oracle(model.DesignASID),
	},
	RI: {Code: "ri", Name: "RI", Figure: "7 ext-RI",
		build: func(n, ways, _ int, seed, rekeyFills uint64, w tlb.Walker) (tlb.TLB, error) {
			return tlb.NewRandIdx(n, ways, w, seed, rekeyFills)
		},
		Theory: func(v model.Vulnerability) (p1, p2 float64) {
			p1, p2, _ = capacity.RandIdxTheory(v, capacity.DefaultRandIdxParams)
			return p1, p2
		},
		Sites: []faultinject.Site{faultinject.SiteRandIdxKeyStuck},
	},
	FS: {Code: "fs", Name: "FS", Figure: "7 ext-FS",
		build: func(n, ways, _ int, _, _ uint64, w tlb.Walker) (tlb.TLB, error) {
			return tlb.NewFlushOnSwitch(n, ways, w)
		},
		Theory: oracle(model.DesignFlushed),
		Sites:  []faultinject.Site{faultinject.SiteFlushSwDropped},
	},
}

// oracle is a deterministic design's theory: the model oracle's verdict.
func oracle(d model.Design) func(model.Vulnerability) (p1, p2 float64) {
	return func(v model.Vulnerability) (p1, p2 float64) {
		p1, p2, _ = capacity.DeterministicTheory(v, d)
		return p1, p2
	}
}

// Entry returns the design's registry row (the zero Entry if unregistered).
func (d ID) Entry() Entry {
	if d < 0 || int(d) >= len(registry) {
		return Entry{}
	}
	return registry[d]
}

// String names the design as the paper's tables do ("SA TLB").
func (d ID) String() string {
	if e := d.Entry(); e.Name != "" {
		return e.Name + " TLB"
	}
	return "?"
}

// New builds the design over a walker. victimWays == 0 selects half the
// ways; each design ignores the parameters it has no use for.
func (d ID) New(entries, ways, victimWays int, seed, rekeyFills uint64, w tlb.Walker) (tlb.TLB, error) {
	e := d.Entry()
	if e.build == nil {
		return nil, fmt.Errorf("design: unknown design %d", int(d))
	}
	t, err := e.build(entries, ways, victimWays, seed, rekeyFills, w)
	if err != nil {
		return nil, err // not a typed nil inside the interface
	}
	return t, nil
}

// ByCode returns the design with the given selector code.
func ByCode(code string) (ID, bool) {
	i := slices.IndexFunc(registry[:], func(e Entry) bool { return e.Code == code })
	return ID(i), i >= 0
}

// SiteOwner returns the design a machine fault site belongs to alone; ok is
// false for a site that applies to every design.
func SiteOwner(s faultinject.Site) (d ID, ok bool) {
	i := slices.IndexFunc(registry[:], func(e Entry) bool { return slices.Contains(e.Sites, s) })
	return ID(i), i >= 0
}

// Arena is the set of designs one harness compares.
type Arena int

const (
	Security Arena = iota // Table 4: every registered design
	Perf                  // Figure 7: the designs with a Figure 7 label
)

// Designs returns the arena's designs in registry order.
func (a Arena) Designs() []ID {
	var out []ID
	for d, e := range registry {
		if a == Security || e.Figure != "" {
			out = append(out, ID(d))
		}
	}
	return out
}

// Codes lists the arena's selector codes, comma-separated.
func (a Arena) Codes() string {
	var codes []string
	for _, d := range a.Designs() {
		codes = append(codes, registry[d].Code)
	}
	return strings.Join(codes, ", ")
}

// Usage is the arena's design-selector help text.
func (a Arena) Usage() string {
	return a.Codes() + `, a comma-separated combination, "all" (the paper's sa,sp,rf trio) or "full" (every design)`
}

// Parse maps a design selector to the designs it runs: single codes,
// comma-separated combinations ("sa,ri,fs", repeats dropped), "all" or
// "full". A code outside the arena is an error.
func (a Arena) Parse(s string) ([]ID, error) {
	switch s {
	case "all":
		// The paper's three designs; the later arrivals are opt-in so
		// checkpointed invocations keep their shape.
		return []ID{SA, SP, RF}, nil
	case "full":
		return a.Designs(), nil
	}
	var out []ID
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(tok)
		d, ok := ByCode(tok)
		if !ok || !slices.Contains(a.Designs(), d) {
			return nil, fmt.Errorf("unknown design %q (want %s)", tok, a.Usage())
		}
		if !slices.Contains(out, d) {
			out = append(out, d)
		}
	}
	return out, nil
}
