// Command areabench prints the analytical area model behind the paper's
// Table 5: Slice LUT and Slice Register estimates for every TLB design and
// configuration, with deltas against the 32-entry 4-way SA baseline, plus
// the §6.6 headline overhead percentages.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"securetlb/internal/area"
	"securetlb/internal/design"
	"securetlb/internal/report"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	flag.Parse()
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		type row struct {
			Design    string `json:"design"`
			Config    string `json:"config"`
			LUTs      int    `json:"slice_luts"`
			DeltaLUTs int    `json:"delta_luts"`
			Regs      int    `json:"slice_registers"`
			DeltaRegs int    `json:"delta_registers"`
		}
		var rows []row
		for _, e := range area.Table5() {
			rows = append(rows, row{e.Design.String(), e.Geometry, e.LUTs, e.DeltaLUTs, e.Registers, e.DeltaRegisters})
		}
		if err := enc.Encode(rows); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	fmt.Println("Table 5 — area model (calibrated to the ZC706 4W-32 SA baseline)")
	rows := make([][]string, 0, 31)
	for _, e := range area.Table5() {
		rows = append(rows, []string{
			e.Design.String(), e.Geometry,
			fmt.Sprintf("%d", e.LUTs), fmt.Sprintf("%+d", e.DeltaLUTs),
			fmt.Sprintf("%d", e.Registers), fmt.Sprintf("%+d", e.DeltaRegisters),
		})
	}
	fmt.Print(report.Table(
		[]string{"Design", "Config", "Slice LUTs", "dLUTs", "Slice Registers", "dRegs"}, rows))

	fmt.Println("\nOverheads vs same-geometry SA (§6.6 headlines, plus the RI/FS extensions):")
	for _, d := range design.Perf.Designs()[1:] { // every design but the SA baseline
		lut, reg, err := area.OverheadPercent(d, "4W 32")
		if err != nil {
			fmt.Fprintln(os.Stderr, "areabench:", err)
			os.Exit(1)
		}
		fmt.Printf("  %s 4W-32: %s LUTs, %s registers", d, report.Pct(lut), report.Pct(reg))
		switch d {
		case design.SP:
			fmt.Printf("   (paper: +0.4%% / +0.1%%)\n")
		case design.RF:
			fmt.Printf("   (paper: +6.2%% / +5.5%%)\n")
		default:
			fmt.Printf("   (extension; no paper row)\n")
		}
	}
}
