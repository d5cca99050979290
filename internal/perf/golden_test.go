package perf

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenDesigns is the perf arena in selector order.
var goldenDesigns = []Design{SA, SP, RF, RI, FS}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from golden (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestFigure7Golden pins the rendered sweep of every perf design, RSA and
// SecRSA, at 5 decryptions: the output of `perfbench -design full
// -decrypts 5` without its headline ratios. The header's worker count is
// fixed so the golden does not depend on the host.
func TestFigure7Golden(t *testing.T) {
	const decrypts, seed, workers = 5, 1, 4
	var b strings.Builder
	for _, d := range goldenDesigns {
		for _, secure := range []bool{false, true} {
			rows, err := Figure7Parallel(d, secure, decrypts, seed, 0)
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString(SweepHeader(d, secure, decrypts, workers))
			b.WriteString(FormatRows(rows))
		}
	}
	checkGolden(t, "figure7.golden", b.String())
}

// TestCellKeyGolden pins each design's first checkpoint cell key, so a
// sweep checkpoint written by an earlier build still resumes.
func TestCellKeyGolden(t *testing.T) {
	var b strings.Builder
	for _, d := range goldenDesigns {
		for _, secure := range []bool{false, true} {
			b.WriteString(cellKey(d, cellSpecs(d)[0], secure, 50, 1) + "\n")
		}
	}
	checkGolden(t, "cellkeys.golden", b.String())
}
