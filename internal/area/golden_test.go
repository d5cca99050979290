package area

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestTable5Golden pins every Table 5 row: design name, geometry and the
// four modelled counts.
func TestTable5Golden(t *testing.T) {
	var b strings.Builder
	for _, e := range Table5() {
		fmt.Fprintf(&b, "%s\t%s\t%d\t%+d\t%d\t%+d\n",
			e.Design, e.Geometry, e.LUTs, e.DeltaLUTs, e.Registers, e.DeltaRegisters)
	}
	got := b.String()
	path := filepath.Join("testdata", "table5.golden")
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
		t.Errorf("Table 5 diverged from golden (regenerate with -update if intended):\ngot:\n%s\nwant:\n%s", got, want)
	}
}
