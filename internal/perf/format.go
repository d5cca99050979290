package perf

// Shared rendering for the Figure 7 sweeps, used by
// both cmd/perfbench and the tlbserved daemon so a served sweep's table is
// byte-identical to the direct CLI run.

import (
	"fmt"

	"securetlb/internal/report"
)

// SweepHeader renders the per-sweep title line exactly as cmd/perfbench
// prints it.
func SweepHeader(d Design, secure bool, decrypts, workers int) string {
	label := "RSA"
	if secure {
		label = "SecRSA"
	}
	return fmt.Sprintf("Figure %s — %s, %s, %d decryptions, %d workers\n",
		d.Entry().Figure, d, label, decrypts, workers)
}

// FormatRows renders a sweep's rows as the perfbench table (plus its
// trailing blank line).
func FormatRows(rows []Row) string {
	out := make([][]string, 0, len(rows))
	for _, r := range rows {
		out = append(out, []string{
			r.Geometry, r.Workload,
			fmt.Sprintf("%.3f", r.Metrics.IPC),
			fmt.Sprintf("%.2f", r.Metrics.MPKI),
			fmt.Sprintf("%d", r.Metrics.Instructions),
			fmt.Sprintf("%d", r.Metrics.TLBMisses),
		})
	}
	return report.Table([]string{"Config", "Workload", "IPC", "MPKI", "Instr", "Misses"}, out) + "\n"
}
