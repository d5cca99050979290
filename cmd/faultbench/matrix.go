package main

// This file is the testable core of faultbench: building the cell list,
// running the differential campaigns, aggregating per (site, design) and
// rendering the matrix. main.go only parses flags and applies the verdict.

import (
	"fmt"
	"os"

	"securetlb/internal/design"
	"securetlb/internal/faultinject"
	"securetlb/internal/model"
	"securetlb/internal/pool"
	"securetlb/internal/report"
	"securetlb/internal/secbench"
)

// matrixConfig parameterises one faultbench run.
type matrixConfig struct {
	Trials   int
	NVulns   int
	Seed     uint64
	Parallel int
	// Sites to exercise; at-rest checkpoint sites are routed to the
	// corruption verifier, everything else to differential campaigns.
	Sites []faultinject.Site
	// Designs every design-agnostic machine site runs on (the
	// design-specific sites run on their own design regardless).
	Designs []secbench.Design
	// RestSeeds is how many corrupted-checkpoint variants each at-rest site
	// verifies.
	RestSeeds uint64
}

// matrixRow is one aggregated (site, design) line of the report plus the
// verdict inputs.
type matrixRow struct {
	cell secbench.FaultCell
}

// matrixResult is everything a run produces: report rows in deterministic
// order and the verdict tallies.
type matrixResult struct {
	Rows           []matrixRow
	DetectedBySite map[faultinject.Site]int
	Silent         int
}

// cellSpec is one differential campaign to run.
type cellSpec struct {
	site   faultinject.Site
	design secbench.Design
	vuln   model.Vulnerability
}

// splitSites partitions sites into machine sites (differential campaigns)
// and at-rest checkpoint sites (corruption verification).
func splitSites(sites []faultinject.Site) (machine, rest []faultinject.Site) {
	for _, s := range sites {
		if s == faultinject.SiteCheckpointTruncate || s == faultinject.SiteCheckpointBitRot {
			rest = append(rest, s)
			continue
		}
		machine = append(machine, s)
	}
	return machine, rest
}

// buildSpecs expands the machine sites into the full site x design x
// vulnerability cell list. Design-specific sites (RF's RNG bias, RI's stuck
// key, FS's dropped flush) run on their design alone.
func buildSpecs(machine []faultinject.Site, designs []secbench.Design, vulns []model.Vulnerability) []cellSpec {
	var specs []cellSpec
	for _, s := range machine {
		ds := designs
		if d, ok := design.SiteOwner(s); ok {
			ds = []secbench.Design{d}
		}
		for _, d := range ds {
			for _, v := range vulns {
				specs = append(specs, cellSpec{s, d, v})
			}
		}
	}
	return specs
}

// runMachineSites runs every differential cell on a bounded pool and
// aggregates the results per (site, design), in site-major order.
func runMachineSites(mc matrixConfig, machine []faultinject.Site, vulns []model.Vulnerability) (matrixResult, error) {
	res := matrixResult{DetectedBySite: map[faultinject.Site]int{}}
	specs := buildSpecs(machine, mc.Designs, vulns)
	cells := make([]secbench.FaultCell, len(specs))
	errs := make([]error, len(specs))
	pool.New(mc.Parallel).ForEach(len(specs), func(i int) {
		cfg := secbench.DefaultConfig(specs[i].design)
		cfg.Trials = mc.Trials
		cfg.Invariants = true
		cfg.FaultSeed = mc.Seed
		// The matrix vulnerabilities perform few fills per trial; a short
		// re-key period keeps the RI re-key site reachable mid-trial.
		cfg.RekeyFills = 2
		cells[i], errs[i] = cfg.RunFaultCell(specs[i].vuln, true, specs[i].site, mc.Trials)
	})
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}

	type key struct {
		site   faultinject.Site
		design string
	}
	agg := map[key]*secbench.FaultCell{}
	var order []key
	for _, c := range cells {
		k := key{c.Site, c.Design}
		a, ok := agg[k]
		if !ok {
			a = &secbench.FaultCell{
				Site: c.Site, Design: c.Design,
				Detected:   map[string]int{},
				Assertions: map[string]int{},
			}
			agg[k] = a
			order = append(order, k)
		}
		a.Trials += c.Trials
		for kind, n := range c.Detected {
			a.Detected[kind] += n
		}
		for name, n := range c.Assertions {
			a.Assertions[name] += n
		}
		a.Benign += c.Benign
		a.Latent += c.Latent
		a.Silent = append(a.Silent, c.Silent...)
		if a.Detail == "" {
			a.Detail = c.Detail
		}
		res.DetectedBySite[c.Site] += c.DetectedTotal()
		res.Silent += len(c.Silent)
	}
	for _, k := range order {
		res.Rows = append(res.Rows, matrixRow{cell: *agg[k]})
	}
	return res, nil
}

// runRestSites verifies the at-rest checkpoint sites by corrupting freshly
// written checkpoint files and requiring loud refusal on resume. Each site
// contributes one synthetic row.
func runRestSites(mc matrixConfig, rest []faultinject.Site, res *matrixResult) error {
	seeds := mc.RestSeeds
	if seeds == 0 {
		seeds = 8
	}
	for _, s := range rest {
		dir, err := os.MkdirTemp("", "faultbench")
		if err != nil {
			return err
		}
		cfg := secbench.DefaultConfig(secbench.DesignSA)
		cfg.Trials = mc.Trials
		loud, benign := 0, 0
		detail := ""
		for i := uint64(0); i < seeds; i++ {
			detected, d, err := cfg.VerifyCheckpointFault(dir, s, mc.Seed+i)
			if err != nil {
				os.RemoveAll(dir)
				return err
			}
			if detected {
				loud++
			} else {
				benign++
			}
			if detail == "" {
				detail = d
			}
		}
		os.RemoveAll(dir)
		res.DetectedBySite[s] += loud
		res.Rows = append(res.Rows, matrixRow{cell: secbench.FaultCell{
			Site:     s,
			Design:   "checkpoint",
			Trials:   int(seeds),
			Detected: map[string]int{"corrupt-refused": loud},
			Benign:   benign,
			Detail:   detail,
		}})
	}
	return nil
}

// runMatrix runs the whole configured matrix: differential campaigns for the
// machine sites, corruption verification for the at-rest sites.
func runMatrix(mc matrixConfig) (matrixResult, error) {
	vulns := pickVulns(mc.NVulns)
	machine, rest := splitSites(mc.Sites)
	res, err := runMachineSites(mc, machine, vulns)
	if err != nil {
		return res, err
	}
	if err := runRestSites(mc, rest, &res); err != nil {
		return res, err
	}
	return res, nil
}

// renderMatrix renders the aggregated rows as the fault-matrix report.
func renderMatrix(res matrixResult) string {
	rows := make([][]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		a := r.cell
		rows = append(rows, []string{
			string(a.Site), a.Design,
			fmt.Sprintf("%d", a.Trials),
			a.Kinds(),
			a.AssertionNames(),
			fmt.Sprintf("%d", a.Benign),
			fmt.Sprintf("%d", a.Latent),
			fmt.Sprintf("%d", len(a.Silent)),
			a.Detail,
		})
	}
	return report.FaultMatrix(rows)
}

// pickVulns selects the first n vulnerabilities that include a victim access
// step (secure-region traffic, so the RF-only sites can fire).
func pickVulns(n int) []model.Vulnerability {
	var out []model.Vulnerability
	for _, v := range model.Enumerate() {
		for _, s := range v.Pattern {
			if s.Actor == model.ActorV && (s.Class == model.ClassU || s.Class == model.ClassA) {
				out = append(out, v)
				break
			}
		}
		if len(out) == n {
			break
		}
	}
	return out
}
