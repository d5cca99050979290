package secbench

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenWorkers is the worker count printed in the rendered headers. It is
// fixed so the goldens do not depend on the host's CPU count; campaign
// results are identical at every worker count.
const goldenWorkers = 4

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

// renderFull renders `secbench -design full` (or with -extended) at the
// default trial count: every design's campaign through FormatCampaign, so
// the theory columns pin each design's theory wiring.
func renderFull(t *testing.T, extended bool) string {
	var b strings.Builder
	for _, d := range AllDesigns() {
		cfg := DefaultConfig(d)
		run := cfg.RunAllCtx
		if extended {
			run = cfg.RunAllExtendedCtx
		}
		rep, err := run(context.Background(), RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(FormatCampaign(d, cfg.Trials, goldenWorkers, extended, rep))
	}
	return b.String()
}

func TestTable4Golden(t *testing.T) {
	checkGolden(t, "table4.golden", renderFull(t, false))
}

func TestAppendixBGolden(t *testing.T) {
	checkGolden(t, "appendixb.golden", renderFull(t, true))
}

// TestFingerprintGolden pins every design's default checkpoint fingerprint,
// so a checkpoint written by an earlier build still resumes.
func TestFingerprintGolden(t *testing.T) {
	var b strings.Builder
	for _, d := range AllDesigns() {
		b.WriteString(DefaultConfig(d).Fingerprint(false) + "\n")
	}
	checkGolden(t, "fingerprints.golden", b.String())
}
