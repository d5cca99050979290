package secbench

// This file renders campaign reports as the CLI's Table 4 / Appendix B
// tables. It lives in the package (rather than cmd/secbench) so every
// consumer — the secbench binary, the tlbserved daemon, tests — shares one
// formatting path and a served campaign's output is byte-identical to the
// direct CLI run of the same configuration.

import (
	"fmt"
	"strings"

	"securetlb/internal/capacity"
	"securetlb/internal/design"
	"securetlb/internal/report"
)

// AllDesigns returns every design in the Table 4 arena, in selector order.
func AllDesigns() []Design { return design.Security.Designs() }

// QuarantineRows converts quarantined trials to the row shape of
// report.Quarantine.
func QuarantineRows(qs []Quarantined) [][]string {
	rows := make([][]string, 0, len(qs))
	for _, q := range qs {
		behaviour := "not-mapped"
		if q.Mapped {
			behaviour = "mapped"
		}
		rows = append(rows, []string{
			q.Design,
			fmt.Sprintf("%s (%s)", q.Pattern, q.Observation),
			behaviour,
			fmt.Sprintf("%d", q.Trial),
			fmt.Sprintf("%#x", q.Seed),
			q.Kind,
			q.Reason,
		})
	}
	return rows
}

// FormatCampaign renders one design's campaign report exactly as
// cmd/secbench prints it: the title line, the Table 4 (or Appendix B)
// table, the defended count, the quarantine section (empty when nothing was
// quarantined) and a trailing blank line.
func FormatCampaign(d Design, trials, workers int, extended bool, rep CampaignReport) string {
	var b strings.Builder
	results := rep.Results
	title := "Table 4"
	if extended {
		title = "Appendix B extension"
	}
	fmt.Fprintf(&b, "%s (%s) — %d mapped + %d not-mapped trials per vulnerability, %d workers\n",
		title, d, trials, trials, workers)
	rows := make([][]string, 0, len(results))
	for _, r := range results {
		row := []string{
			r.Vulnerability.Strategy,
			r.Vulnerability.String(),
			fmt.Sprintf("%d", r.Counts.MappedMisses),
			report.F(r.P1),
		}
		if !extended {
			tp1, tp2 := d.Entry().Theory(r.Vulnerability)
			tc := capacity.MutualInformation(tp1, tp2)
			row = append(row, report.F(tp1),
				fmt.Sprintf("%d", r.Counts.NotMappedMisses),
				report.F(r.P2), report.F(tp2),
				report.F(r.C), report.F(tc))
		} else {
			row = append(row,
				fmt.Sprintf("%d", r.Counts.NotMappedMisses),
				report.F(r.P2), report.F(r.C))
		}
		row = append(row, report.F(r.CIHigh))
		rows = append(rows, append(row, report.Check(r.Defended())))
	}
	headers := []string{"Strategy", "Vulnerability", "nMM", "p1*", "p1", "nNM", "p2*", "p2", "C*", "C", "C*ci95", "verdict"}
	if extended {
		headers = []string{"Strategy", "Vulnerability", "nMM", "p1*", "nNM", "p2*", "C*", "C*ci95", "verdict"}
	}
	b.WriteString(report.Table(headers, rows))
	fmt.Fprintf(&b, "%s defends %d/%d vulnerability types\n", d, DefendedCount(results), len(results))
	b.WriteString(report.Quarantine(QuarantineRows(rep.Quarantined)))
	b.WriteString("\n")
	return b.String()
}
