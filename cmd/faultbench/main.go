// Command faultbench runs the differential fault-injection matrix in one
// invocation: for every registered fault site and every TLB design (SA, FA,
// SP, RF, RI, FS — any design implementing tlb.TLB gets the battery for free
// via the assertion layer) it executes a clean and a faulted security campaign over
// identical trial seeds and classifies each faulted trial as detected
// (quarantined with a reported kind, broken down by the declarative
// assertion that fired), benign (fault landed, outcome bit-identical to the
// clean run) or latent (trigger never reached). The two at-rest checkpoint
// sites are exercised by corrupting a freshly written checkpoint file and
// requiring the resume to fail loudly.
//
// Usage:
//
//	faultbench                      # full matrix, every site x every design
//	faultbench -site tlb-tag-flip   # one site
//	faultbench -trials 32 -vulns 3  # heavier sampling
//	faultbench -list                # print the registered sites
//
// The exit status is the acceptance verdict: non-zero if any fault changed a
// trial's outcome without being detected (silent corruption) or — unless
// -require-detect=false — if any site was never detected at all (useful for
// smoke runs whose trial counts are too small to trigger every site).
package main

import (
	"flag"
	"fmt"
	"os"

	"securetlb/internal/faultinject"
	"securetlb/internal/model"
	"securetlb/internal/secbench"
)

func main() {
	trials := flag.Int("trials", 16, "trials per (site, design, vulnerability) cell")
	nvulns := flag.Int("vulns", 2, "how many vulnerability types to fault per cell")
	siteFlag := flag.String("site", "", "run a single site instead of the full matrix")
	seed := flag.Uint64("fault-seed", 0xfa115eed, "campaign-level fault seed")
	parallel := flag.Int("parallel", 0, "worker pool size for the matrix cells (0 = all CPUs)")
	requireDetect := flag.Bool("require-detect", true, "fail if a site is never detected (silent corruption always fails)")
	list := flag.Bool("list", false, "print the registered fault sites and exit")
	flag.Parse()

	if *list {
		for _, s := range faultinject.Sites() {
			fmt.Println(s)
		}
		return
	}
	if err := validateFlags(*trials, *nvulns, *parallel); err != nil {
		fatal(err)
	}
	sites := faultinject.Sites()
	if *siteFlag != "" {
		s, err := faultinject.ParseSite(*siteFlag)
		if err != nil {
			fatal(err)
		}
		sites = []faultinject.Site{s}
	}

	res, err := runMatrix(matrixConfig{
		Trials:   *trials,
		NVulns:   *nvulns,
		Seed:     *seed,
		Parallel: *parallel,
		Sites:    sites,
		Designs:  secbench.AllDesigns(),
	})
	if err != nil {
		fatal(err)
	}
	fmt.Print(renderMatrix(res))

	failed := false
	if res.Silent > 0 {
		fmt.Fprintf(os.Stderr, "faultbench: FAIL: %d silent corruption(s) — a fault changed an outcome without detection\n", res.Silent)
		failed = true
	}
	undetected := 0
	for _, s := range sites {
		if res.DetectedBySite[s] == 0 {
			undetected++
			if *requireDetect {
				fmt.Fprintf(os.Stderr, "faultbench: FAIL: site %s was never detected\n", s)
				failed = true
			} else {
				fmt.Fprintf(os.Stderr, "faultbench: note: site %s was never detected at this sampling depth\n", s)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
	if undetected == 0 {
		fmt.Printf("all %d sites detected, no silent corruption\n", len(sites))
	} else {
		fmt.Printf("%d/%d sites detected, no silent corruption\n", len(sites)-undetected, len(sites))
	}
}

// validateFlags rejects invalid sampling parameters up front with a clear
// message, instead of letting a zero-trial matrix report a vacuous pass or
// a bad pool size fail inside the sweep.
func validateFlags(trials, nvulns, parallel int) error {
	if trials <= 0 {
		return fmt.Errorf("-trials must be positive, got %d", trials)
	}
	if nvulns <= 0 {
		return fmt.Errorf("-vulns must be positive, got %d", nvulns)
	}
	if max := len(model.Enumerate()); nvulns > max {
		return fmt.Errorf("-vulns %d exceeds the %d enumerated vulnerability types", nvulns, max)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0 (0 = all CPUs), got %d", parallel)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faultbench:", err)
	os.Exit(1)
}
