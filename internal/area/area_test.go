package area

import (
	"testing"

	"securetlb/internal/design"
)

func TestBaselineCalibration(t *testing.T) {
	// The model is pinned to the paper's measured 4W-32 SA baseline.
	e := Model(design.SA, Geometry{"4W 32", 32, 4})
	if e.LUTs != 36043 || e.Registers != 22765 {
		t.Errorf("baseline = %d LUTs / %d regs, want 36043 / 22765", e.LUTs, e.Registers)
	}
	if e.DeltaLUTs != 0 || e.DeltaRegisters != 0 {
		t.Errorf("baseline deltas must be zero: %+v", e)
	}
}

func TestSPOverheadNearPaper(t *testing.T) {
	// Paper §6.6: SP 4W-32 has +0.4% LUTs and +0.1% registers over SA.
	lut, reg, err := OverheadPercent(design.SP, "4W 32")
	if err != nil {
		t.Fatal(err)
	}
	if lut < 0.1 || lut > 1.0 {
		t.Errorf("SP LUT overhead = %.2f%%, want ≈ 0.4%%", lut)
	}
	if reg < 0.0 || reg > 0.5 {
		t.Errorf("SP register overhead = %.2f%%, want ≈ 0.1%%", reg)
	}
}

func TestRFOverheadNearPaper(t *testing.T) {
	// Paper §6.6: RF 4W-32 has +6.2% LUTs and +5.5% registers over SA.
	lut, reg, err := OverheadPercent(design.RF, "4W 32")
	if err != nil {
		t.Fatal(err)
	}
	if lut < 4.0 || lut > 8.5 {
		t.Errorf("RF LUT overhead = %.2f%%, want ≈ 6.2%%", lut)
	}
	if reg < 3.5 || reg > 7.5 {
		t.Errorf("RF register overhead = %.2f%%, want ≈ 5.5%%", reg)
	}
}

func TestPaperDeltaRows(t *testing.T) {
	rows := Table5()
	sp, err := Find(rows, design.SP, "4W 32")
	if err != nil {
		t.Fatal(err)
	}
	// Paper: SP 4W-32 is +140 LUTs / +33 registers over baseline.
	if sp.DeltaLUTs < 50 || sp.DeltaLUTs > 300 {
		t.Errorf("SP 4W-32 ΔLUTs = %d, paper reports +140", sp.DeltaLUTs)
	}
	if sp.DeltaRegisters < 20 || sp.DeltaRegisters > 60 {
		t.Errorf("SP 4W-32 Δregs = %d, paper reports +33", sp.DeltaRegisters)
	}
	rf, _ := Find(rows, design.RF, "4W 32")
	// Paper: RF 4W-32 is +2223 LUTs / +1253 registers.
	if rf.DeltaLUTs < 1700 || rf.DeltaLUTs > 2800 {
		t.Errorf("RF 4W-32 ΔLUTs = %d, paper reports +2223", rf.DeltaLUTs)
	}
	if rf.DeltaRegisters < 1000 || rf.DeltaRegisters > 1600 {
		t.Errorf("RF 4W-32 Δregs = %d, paper reports +1253", rf.DeltaRegisters)
	}
}

func TestOrderings(t *testing.T) {
	rows := Table5()
	get := func(d Design, label string) Estimate {
		e, err := Find(rows, d, label)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for _, label := range []string{"FA 32", "2W 32", "4W 32", "FA 128", "2W 128", "4W 128"} {
		sa, sp, rf := get(design.SA, label), get(design.SP, label), get(design.RF, label)
		if !(rf.LUTs > sp.LUTs && sp.LUTs > sa.LUTs) {
			t.Errorf("%s: LUT ordering RF > SP > SA violated (%d, %d, %d)",
				label, rf.LUTs, sp.LUTs, sa.LUTs)
		}
		if !(rf.Registers > sp.Registers && sp.Registers >= sa.Registers) {
			t.Errorf("%s: register ordering violated", label)
		}
	}
	for _, d := range []Design{design.SA, design.SP, design.RF} {
		if !(get(d, "4W 128").Registers > get(d, "4W 32").Registers) {
			t.Errorf("%s: 128 entries should cost more registers than 32", d)
		}
		if !(get(d, "FA 32").LUTs > get(d, "4W 32").LUTs) {
			t.Errorf("%s: FA should cost more LUTs than 4W at 32 entries (CAM match)", d)
		}
	}
	one := get(design.SA, "1E")
	if one.DeltaLUTs >= 0 || one.DeltaRegisters >= 0 {
		t.Errorf("1E must be smaller than the baseline: %+v", one)
	}
}

func TestFAPaysCAMWidth(t *testing.T) {
	// FA 128 should be dramatically more expensive than 4W 128 in LUTs:
	// every entry carries a full-width comparator.
	rows := Table5()
	fa, _ := Find(rows, design.SA, "FA 128")
	sw, _ := Find(rows, design.SA, "4W 128")
	if fa.LUTs <= sw.LUTs {
		t.Errorf("FA 128 (%d LUTs) should exceed 4W 128 (%d LUTs)", fa.LUTs, sw.LUTs)
	}
}

func TestTable5Shape(t *testing.T) {
	rows := Table5()
	if len(rows) != 7+6+6+6+6 {
		t.Errorf("rows = %d, want 31 (the paper's 19 configurations plus the RI and FS extensions)", len(rows))
	}
	for _, d := range []Design{design.SP, design.RF, design.RI, design.FS} {
		if _, err := Find(rows, d, "1E"); err == nil {
			t.Errorf("%s has no 1E configuration", d)
		}
	}
	if Design(9).String() != "?" || design.SA.String() != "SA TLB" || design.RI.String() != "RI TLB" || design.FS.String() != "FS TLB" {
		t.Error("design names wrong")
	}
}

// TestRIAndFSOverheads pins the extension rows' qualitative story: the RI
// TLB pays for its index cipher and full-VPN tags (a few percent of LUTs,
// noticeably more than SP, comparable to RF), while the FS TLB is nearly
// free in area — its security mechanism is an invalidate strobe, not state.
func TestRIAndFSOverheads(t *testing.T) {
	riLUT, riReg, err := OverheadPercent(design.RI, "4W 32")
	if err != nil {
		t.Fatal(err)
	}
	if riLUT < 3.0 || riLUT > 9.0 {
		t.Errorf("RI LUT overhead = %.2f%%, want a few percent (cipher + wide tags)", riLUT)
	}
	if riReg < 0.5 || riReg > 5.0 {
		t.Errorf("RI register overhead = %.2f%%, want small but nonzero", riReg)
	}
	fsLUT, fsReg, err := OverheadPercent(design.FS, "4W 32")
	if err != nil {
		t.Fatal(err)
	}
	if fsLUT < 0.1 || fsLUT > 2.0 {
		t.Errorf("FS LUT overhead = %.2f%%, want well under RF's", fsLUT)
	}
	if fsReg < 0.0 || fsReg > 1.0 {
		t.Errorf("FS register overhead = %.2f%%, want near zero", fsReg)
	}
	rows := Table5()
	for _, label := range []string{"FA 32", "2W 32", "4W 32", "FA 128", "2W 128", "4W 128"} {
		sp, _ := Find(rows, design.SP, label)
		ri, _ := Find(rows, design.RI, label)
		fs, _ := Find(rows, design.FS, label)
		rf, _ := Find(rows, design.RF, label)
		if !(ri.LUTs > sp.LUTs) {
			t.Errorf("%s: RI (%d LUTs) should exceed SP (%d)", label, ri.LUTs, sp.LUTs)
		}
		if !(fs.LUTs < rf.LUTs && fs.LUTs < ri.LUTs) {
			t.Errorf("%s: FS (%d LUTs) should be the cheapest secure design (RF %d, RI %d)",
				label, fs.LUTs, rf.LUTs, ri.LUTs)
		}
	}
}
