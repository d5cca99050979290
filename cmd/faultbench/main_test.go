package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"securetlb/internal/design"
	"securetlb/internal/faultinject"
	"securetlb/internal/model"
	"securetlb/internal/secbench"
)

var update = flag.Bool("update", false, "rewrite golden files")

func TestValidateFlags(t *testing.T) {
	if err := validateFlags(8, 2, 0); err != nil {
		t.Fatalf("valid defaults rejected: %v", err)
	}
	bad := []struct {
		name                     string
		trials, nvulns, parallel int
	}{
		{"zero trials", 0, 2, 0},
		{"negative trials", -1, 2, 0},
		{"zero vulns", 8, 0, 0},
		{"vulns beyond enumeration", 8, len(model.Enumerate()) + 1, 0},
		{"negative parallel", 8, 2, -1},
	}
	for _, tc := range bad {
		if err := validateFlags(tc.trials, tc.nvulns, tc.parallel); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestMatrixGolden pins the rendered full-matrix report for the machine
// sites — every design x every machine site at a small fixed sampling depth.
// The at-rest checkpoint sites are excluded: their detail strings embed
// nondeterministic temp-file paths. Regenerate with `go test -update`.
func TestMatrixGolden(t *testing.T) {
	res, err := runMatrix(matrixConfig{
		Trials:   4,
		NVulns:   1,
		Seed:     0xfa117,
		Parallel: 2,
		Sites:    faultinject.MachineSites(),
		Designs:  secbench.AllDesigns(),
	})
	if err != nil {
		t.Fatal(err)
	}
	got := renderMatrix(res)
	path := filepath.Join("testdata", "matrix.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("matrix rendering diverged from golden (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestMatrixCoversAllDesignSiteCells requires the one-invocation matrix to
// produce a row for every (machine site, applicable design) pair — the
// "whole battery in one run" contract of the CLI.
func TestMatrixCoversAllDesignSiteCells(t *testing.T) {
	res, err := runMatrix(matrixConfig{
		Trials:   2,
		NVulns:   1,
		Seed:     0xfa117,
		Parallel: 2,
		Sites:    faultinject.MachineSites(),
		Designs:  secbench.AllDesigns(),
	})
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		site   faultinject.Site
		design string
	}
	have := map[key]bool{}
	for _, r := range res.Rows {
		have[key{r.cell.Site, r.cell.Design}] = true
	}
	want := 0
	for _, s := range faultinject.MachineSites() {
		ds := secbench.AllDesigns()
		if d, ok := design.SiteOwner(s); ok {
			ds = []secbench.Design{d}
		}
		for _, d := range ds {
			want++
			if !have[key{s, d.String()}] {
				t.Errorf("missing matrix cell for %s on %s", s, d)
			}
		}
	}
	if len(have) != want {
		t.Errorf("matrix has %d cells, want %d", len(have), want)
	}
}
