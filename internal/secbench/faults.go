package secbench

// This file is the differential fault harness: for each fault-injection site
// it runs a clean campaign and a faulted campaign over identical trial seeds
// and classifies every faulted trial against three acceptable outcomes:
//
//   - detected: the trial errored and was quarantined with a reported kind
//     (the invariant checker's "invariant", the core's "fault", ...);
//   - benign: the fault landed but the trial's observable outcome is
//     bit-identical to the clean run's (the upset hit dead state);
//   - latent: the injector's trigger ordinal was never reached, so no fault
//     actually landed.
//
// Anything else — an outcome that differs from the clean run with no
// detection reported — is silent corruption, the one result the layer
// exists to rule out. A passing fault matrix therefore establishes the
// PR's survivor-statistics guarantee constructively: surviving trials are
// bit-identical to the clean campaign over exactly those trial indices.

import (
	"errors"
	"fmt"
	"path/filepath"

	"securetlb/internal/assert"
	"securetlb/internal/checkpoint"
	"securetlb/internal/design"
	"securetlb/internal/faultinject"
	"securetlb/internal/model"
)

// DesignsForSite returns the designs a machine fault site applies to: the
// site's owner in the design registry alone, or else the full arena.
func DesignsForSite(site faultinject.Site) []Design {
	if d, ok := design.SiteOwner(site); ok {
		return []Design{d}
	}
	return AllDesigns()
}

// FaultCell is the outcome of one differential fault campaign: one site, one
// vulnerability, one behaviour, Trials trials.
type FaultCell struct {
	Site   faultinject.Site
	Design string
	Vuln   string
	Mapped bool
	Trials int
	// Detected counts quarantined trials by kind ("invariant", "fault", ...).
	Detected map[string]int
	// Assertions counts "invariant"-kind detections by the name of the
	// declarative assertion that fired (assert.Violation.Assertion) — the
	// matrix's answer to "which property caught this fault".
	Assertions map[string]int
	// Benign counts trials where the fault fired but the outcome matched the
	// clean run bit-for-bit; Latent counts trials where it never fired.
	Benign, Latent int
	// Silent lists the trial indices whose outcome differed from the clean
	// run without any detection — the failure mode the layer must prevent.
	Silent []int
	// Details holds one example injector detail string per observed class,
	// for the matrix report.
	Detail string
}

// DetectedTotal sums detections across kinds.
func (fc FaultCell) DetectedTotal() int {
	n := 0
	for _, v := range fc.Detected {
		n += v
	}
	return n
}

// Kinds renders the detection map compactly in a stable order.
func (fc FaultCell) Kinds() string {
	s := ""
	for _, k := range []string{"invariant", "fault", "panic", "fuel-exhausted", "bench-failed", "corrupt-refused"} {
		if n := fc.Detected[k]; n > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s:%d", k, n)
		}
	}
	if s == "" {
		s = "-"
	}
	return s
}

// AssertionNames renders the assertion tally compactly, ordered as the
// catalog declares the assertions (a stable, meaningful order).
func (fc FaultCell) AssertionNames() string {
	s := ""
	for _, a := range assert.Catalog() {
		if n := fc.Assertions[a.Name]; n > 0 {
			if s != "" {
				s += " "
			}
			s += fmt.Sprintf("%s:%d", a.Name, n)
		}
	}
	if s == "" {
		s = "-"
	}
	return s
}

// RunFaultCell runs the differential campaign for one machine fault site.
// The receiver's Invariants/FaultSite settings are overridden: the clean
// campaign runs with invariants as configured and no faults; the faulted
// campaign arms site on every trial. trials <= 0 uses c.Trials.
func (c Config) RunFaultCell(v model.Vulnerability, mapped bool, site faultinject.Site, trials int) (FaultCell, error) {
	if trials <= 0 {
		trials = c.Trials
	}
	cell := FaultCell{
		Site:       site,
		Design:     c.Design.String(),
		Vuln:       v.String(),
		Mapped:     mapped,
		Trials:     trials,
		Detected:   map[string]int{},
		Assertions: map[string]int{},
	}

	// Clean reference: every trial must complete; a clean failure means the
	// harness itself is broken for this (vulnerability, design) pair.
	clean := c
	clean.FaultSite = ""
	cp, err := clean.newCampaign(v, mapped)
	if err != nil {
		return cell, err
	}
	ref := make([]bool, trials)
	fuel := clean.fuel()
	for trial := 0; trial < trials; trial++ {
		// Every earlier trial on cp completed (a failure returns), so all but
		// the first may replay only the trace body.
		miss, err := cp.runTrial(trialSeedFor(c.BaseSeed, trial, mapped), fuel, trial > 0)
		if err != nil {
			return cell, fmt.Errorf("clean reference trial %d: %w", trial, err)
		}
		ref[trial] = miss
	}

	// Faulted run: fresh campaign, one injector armed per trial.
	faulted := c
	faulted.FaultSite = site
	fp, err := faulted.newCampaign(v, mapped)
	if err != nil {
		return cell, err
	}
	for trial := 0; trial < trials; trial++ {
		var miss bool
		inj, kind, err := fp.guardedTrial(site, faultSeedFor(c.FaultSeed, trial, mapped), func() error {
			var terr error
			miss, terr = fp.runTrial(trialSeedFor(c.BaseSeed, trial, mapped), fuel, false)
			return terr
		})
		if err != nil && kind == "" {
			return cell, fmt.Errorf("faulted trial %d: infrastructure error: %w", trial, err)
		}
		if cell.Detail == "" && inj.Fired() {
			cell.Detail = inj.Detail()
		}
		switch {
		case err != nil:
			cell.Detected[kind]++
			var av *assert.Violation
			if errors.As(err, &av) {
				cell.Assertions[av.Assertion]++
			}
		case miss != ref[trial]:
			cell.Silent = append(cell.Silent, trial)
		case inj.Fired():
			cell.Benign++
		default:
			cell.Latent++
		}
	}
	return cell, nil
}

// VerifyCheckpointFault exercises one at-rest checkpoint fault site: it
// writes a valid checkpoint carrying this campaign's fingerprint, corrupts
// the file with the site, and verifies that resuming either fails loudly
// (checkpoint.ErrCorrupt, or any typed refusal) or recovers content
// bit-identical to what was written (the corruption hit non-semantic bytes).
// A resume that succeeds with different content is silent corruption and is
// returned as an error.
func (c Config) VerifyCheckpointFault(dir string, site faultinject.Site, seed uint64) (detected bool, detail string, err error) {
	path := filepath.Join(dir, fmt.Sprintf("ck-%s-%x.json", site, seed))
	fp := c.Fingerprint(false)
	ck, err := checkpoint.Open(path, fp, 1, false)
	if err != nil {
		return false, "", err
	}
	want := unitCounts{Misses: 7, Survivors: 9}
	if err := ck.Record("unit-under-test", want); err != nil {
		return false, "", err
	}
	detail, err = faultinject.CorruptFile(site, path, seed)
	if err != nil {
		return false, detail, err
	}
	re, err := checkpoint.Open(path, fp, 1, true)
	if err != nil {
		// Loud refusal: a corrupt checkpoint must never be resumed. The
		// checksum and parse guards surface as ErrCorrupt; corruption of the
		// fingerprint field itself surfaces as ErrMismatch; either is a
		// detection.
		if errors.Is(err, checkpoint.ErrCorrupt) || errors.Is(err, checkpoint.ErrMismatch) {
			return true, detail, nil
		}
		// Other typed refusals (e.g. a corrupted version field) are still
		// loud failures, not silent corruption.
		return true, detail, nil
	}
	var got unitCounts
	ok, err := re.Lookup("unit-under-test", &got)
	if err != nil {
		return true, detail, nil
	}
	if ok && got.Misses == want.Misses && got.Survivors == want.Survivors &&
		len(got.Quarantined) == 0 && re.Len() == 1 {
		// The flip landed in bytes with no semantic content (trailing
		// whitespace): recovery is bit-identical, which is a legal outcome.
		return false, detail, nil
	}
	return false, detail, fmt.Errorf("checkpoint resumed silently with corrupt content after %s (%s): got %+v want %+v", site, detail, got, want)
}
