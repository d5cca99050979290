package perf

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"securetlb/internal/checkpoint"
	"securetlb/internal/tlb"
	"securetlb/internal/workload"
)

const testDecrypts = 8

func cellMPKI(t *testing.T, d Design, g Geometry, spec workload.Generator, secure bool) Metrics {
	t.Helper()
	row, err := Cell(d, g, spec, secure, testDecrypts, 11)
	if err != nil {
		t.Fatalf("Cell(%s,%s): %v", d, g.Label, err)
	}
	return row.Metrics
}

func geom(t *testing.T, label string) Geometry {
	t.Helper()
	for _, g := range Geometries() {
		if g.Label == label {
			return g
		}
	}
	t.Fatalf("no geometry %q", label)
	return Geometry{}
}

func TestGeometriesMatchPaper(t *testing.T) {
	want := []string{"1E", "FA 32", "2W 32", "4W 32", "FA 128", "2W 128", "4W 128"}
	gs := Geometries()
	if len(gs) != len(want) {
		t.Fatalf("geometries = %d", len(gs))
	}
	for i, g := range gs {
		if g.Label != want[i] {
			t.Errorf("geometry %d = %q, want %q", i, g.Label, want[i])
		}
		if g.Entries%g.Ways != 0 {
			t.Errorf("%s: invalid geometry", g.Label)
		}
	}
}

func TestOneEntryApproximatesNoTLB(t *testing.T) {
	// §6.3: disabling the TLB (1E) costs ~38% IPC on average; here the
	// relative ordering is what matters.
	one := cellMPKI(t, SA, geom(t, "1E"), workload.Povray(), false)
	full := cellMPKI(t, SA, geom(t, "4W 32"), workload.Povray(), false)
	if one.IPC >= full.IPC {
		t.Errorf("1E IPC %.3f should be far below 4W 32 IPC %.3f", one.IPC, full.IPC)
	}
	if one.MPKI <= full.MPKI {
		t.Errorf("1E MPKI %.1f should exceed 4W 32 MPKI %.1f", one.MPKI, full.MPKI)
	}
}

func TestLargerTLBHelps(t *testing.T) {
	small := cellMPKI(t, SA, geom(t, "4W 32"), workload.Omnetpp(), false)
	large := cellMPKI(t, SA, geom(t, "4W 128"), workload.Omnetpp(), false)
	if large.MPKI >= small.MPKI {
		t.Errorf("128-entry MPKI %.1f should be below 32-entry %.1f", large.MPKI, small.MPKI)
	}
	if large.IPC <= small.IPC {
		t.Errorf("128-entry IPC %.3f should exceed 32-entry %.3f", large.IPC, small.IPC)
	}
}

func TestCactusADMInsensitiveToTLBSize(t *testing.T) {
	small := cellMPKI(t, SA, geom(t, "4W 32"), workload.CactusADM(), false)
	large := cellMPKI(t, SA, geom(t, "4W 128"), workload.CactusADM(), false)
	if small.MPKI > 1.5*large.MPKI {
		t.Errorf("cactusADM should be TLB-size-insensitive: 32→%.2f vs 128→%.2f", small.MPKI, large.MPKI)
	}
}

func TestSPMPKIMultiplesOfSA(t *testing.T) {
	// §6.4: the SP TLB shows roughly 3x the MPKI of the SA TLB (effective
	// capacity halves).
	g := geom(t, "4W 32")
	sa := cellMPKI(t, SA, g, workload.Povray(), false)
	sp := cellMPKI(t, SP, g, workload.Povray(), false)
	if sp.MPKI < 2*sa.MPKI {
		t.Errorf("SP MPKI %.1f should be several times SA's %.1f", sp.MPKI, sa.MPKI)
	}
}

func TestRFMatchesSAWithoutSecurity(t *testing.T) {
	// With no secure region configured the RF TLB degenerates to SA.
	g := geom(t, "4W 32")
	sa := cellMPKI(t, SA, g, workload.Xalancbmk(), false)
	rf := cellMPKI(t, RF, g, workload.Xalancbmk(), false)
	if sa.MPKI != rf.MPKI || sa.Cycles != rf.Cycles {
		t.Errorf("unconfigured RF should equal SA: SA %.2f/%d vs RF %.2f/%d",
			sa.MPKI, sa.Cycles, rf.MPKI, rf.Cycles)
	}
}

func TestRFSecureOverheadSmall(t *testing.T) {
	// §6.5: SecRSA on the RF TLB costs ~9% MPKI over SA, dramatically less
	// than SP.
	g := geom(t, "4W 32")
	sa := cellMPKI(t, SA, g, workload.Povray(), false)
	rf := cellMPKI(t, RF, g, workload.Povray(), true)
	sp := cellMPKI(t, SP, g, workload.Povray(), true)
	if rf.MPKI > 1.5*sa.MPKI {
		t.Errorf("RF secure MPKI %.2f too far above SA %.2f", rf.MPKI, sa.MPKI)
	}
	if rf.MPKI >= sp.MPKI {
		t.Errorf("RF MPKI %.2f should be well below SP %.2f", rf.MPKI, sp.MPKI)
	}
	if rf.IPC <= cellMPKI(t, SA, geom(t, "1E"), workload.Povray(), false).IPC {
		t.Error("RF should be far faster than the no-TLB approximation")
	}
}

func TestRSAAloneHasLowMPKI(t *testing.T) {
	// §6.3: "RSA routine is relatively small, so it experiences very few
	// MPKIs."
	m := cellMPKI(t, SA, geom(t, "4W 32"), nil, false)
	if m.MPKI > 1 {
		t.Errorf("RSA-alone MPKI = %.2f, want < 1", m.MPKI)
	}
}

func TestRunTerminatesOnTraceCompletion(t *testing.T) {
	tr := &workload.Trace{Nm: "t", Pages: []tlb.VPN{1, 2, 3}, InstrPerAccess: 2, Repeats: 3}
	tlb_, err := BuildTLB(SA, geom(t, "4W 32"), false, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Run(RunConfig{TLB: tlb_, Processes: []Process{{ASID: 1, Gen: tr}}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Instructions >= 50_000_000 {
		t.Error("run should end when the trace completes")
	}
	if !tr.Done() {
		t.Error("trace should be complete")
	}
}

func TestRunInstructionBudget(t *testing.T) {
	tlb_, _ := BuildTLB(SA, geom(t, "4W 32"), false, 1)
	m, err := Run(RunConfig{
		TLB:             tlb_,
		Processes:       []Process{{ASID: 2, Gen: workload.Povray()}},
		MaxInstructions: 12345,
		Seed:            2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Instructions != 12345 {
		t.Errorf("instructions = %d, want 12345", m.Instructions)
	}
	if m.IPC <= 0 || m.Cycles < m.Instructions {
		t.Errorf("metrics inconsistent: %+v", m)
	}
}

func TestFlushOnSwitchHurts(t *testing.T) {
	// The Sanctum-style flush-on-switch mode must cost misses relative to
	// ASID tagging.
	run := func(flush bool) Metrics {
		tlb_, _ := BuildTLB(SA, geom(t, "4W 32"), false, 1)
		rsa, err := RSATrace(testDecrypts, 42)
		if err != nil {
			t.Fatal(err)
		}
		m, err := Run(RunConfig{
			TLB: tlb_,
			Processes: []Process{
				{ASID: victimASID, Gen: rsa},
				{ASID: specASID, Gen: workload.Povray()},
			},
			Timeslice:     2000,
			FlushOnSwitch: flush,
			Seed:          3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	if run(true).MPKI <= run(false).MPKI {
		t.Error("flushing on context switch should raise MPKI")
	}
}

func TestBuildTLBErrors(t *testing.T) {
	if _, err := BuildTLB(SP, Geometry{"1E", 1, 1}, false, 1); err == nil {
		t.Error("SP with one way should be rejected")
	}
	if _, err := BuildTLB(Design(9), geom(t, "4W 32"), false, 1); err == nil {
		t.Error("unknown design should be rejected")
	}
	if _, err := Run(RunConfig{}); err == nil {
		t.Error("empty run config should be rejected")
	}
}

func TestFigure7RowCount(t *testing.T) {
	rows, err := Figure7(SA, false, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 7 geometries x (RSA + 4 co-runs).
	if len(rows) != 35 {
		t.Errorf("SA rows = %d, want 35", len(rows))
	}
	rows, err = Figure7(SP, true, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// SP skips 1E.
	if len(rows) != 30 {
		t.Errorf("SP rows = %d, want 30", len(rows))
	}
}

func TestAggregate(t *testing.T) {
	rows := []Row{
		{Geometry: "a", Metrics: Metrics{MPKI: 2}},
		{Geometry: "a", Metrics: Metrics{MPKI: 4}},
		{Geometry: "b", Metrics: Metrics{MPKI: 10}},
	}
	avg, ok := Aggregate(rows, func(r Row) bool { return r.Geometry == "a" },
		func(m Metrics) float64 { return m.MPKI })
	if !ok || avg != 3 {
		t.Errorf("aggregate = (%v,%v)", avg, ok)
	}
	if _, ok := Aggregate(rows, func(Row) bool { return false }, func(m Metrics) float64 { return 0 }); ok {
		t.Error("no matches should report !ok")
	}
}

func TestDesignString(t *testing.T) {
	// Cell keys use the short name, sweep headers the full one.
	if SA.Entry().Name != "SA" || SP.Entry().Name != "SP" || RF.String() != "RF TLB" || Design(7).String() != "?" {
		t.Error("design names wrong")
	}
}

// TestRowJSONKeepsArenaIndex pins Row's wire form: Design is written as its
// index in the Figure 7 arena (RI=3, FS=4, not their registry IDs), the
// number perfbench -json prints and sweep checkpoints store, and it decodes
// back to the same design.
func TestRowJSONKeepsArenaIndex(t *testing.T) {
	for i, d := range []Design{SA, SP, RF, RI, FS} {
		row := Row{Design: d, Geometry: "4W 32", Workload: "RSA", Decrypts: 5}
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf(`{"Design":%d,"Geometry":"4W 32","Workload":"RSA","Secure":false,"Decrypts":5,`, i)
		if !strings.HasPrefix(string(b), want) {
			t.Errorf("%v encodes as %s, want prefix %s", d, b, want)
		}
		var back Row
		if err := json.Unmarshal(b, &back); err != nil || back != row {
			t.Errorf("%v round-trips to %+v, %v", d, back, err)
		}
	}
	var r Row
	if err := json.Unmarshal([]byte(`{"Design":5}`), &r); err == nil {
		t.Error("a Design outside the Figure 7 arena decoded")
	}
}

func TestFigure7ParallelMatchesSerial(t *testing.T) {
	serial, err := Figure7(SA, false, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Figure7Parallel(SA, false, 2, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("lengths: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("row %d differs: %+v vs %+v", i, serial[i], parallel[i])
		}
	}
}

func TestRunPropagatesWalkerFaults(t *testing.T) {
	// Failure injection: a faulting translation substrate must surface as an
	// error, not corrupt metrics.
	bad := tlb.WalkerFunc(func(asid tlb.ASID, vpn tlb.VPN) (tlb.PPN, uint64, error) {
		if vpn >= 0x20000 {
			return 0, 5, errTest
		}
		return tlb.PPN(vpn), 60, nil
	})
	sa, err := tlb.NewSetAssoc(32, 4, bad)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(RunConfig{
		TLB:             sa,
		Processes:       []Process{{ASID: 2, Gen: workload.Povray()}}, // base 0x20000
		MaxInstructions: 10_000,
		Seed:            1,
	})
	if err == nil {
		t.Error("walker fault should abort the run")
	}
}

type testErr struct{}

func (testErr) Error() string { return "injected fault" }

var errTest = testErr{}

// TestFigure7CtxMatchesSerial: the resilient sweep with no checkpoint and a
// live context is bit-identical to the serial reference.
func TestFigure7CtxMatchesSerial(t *testing.T) {
	serial, err := Figure7(SA, false, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Figure7Ctx(context.Background(), SA, false, 2, 9, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, serial) {
		t.Error("Figure7Ctx differs from Figure7")
	}
}

// TestFigure7CtxCancelledBeforeStart: a pre-cancelled context admits no
// cells and returns the typed context error.
func TestFigure7CtxCancelledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rows, err := Figure7Ctx(ctx, SA, false, 2, 9, 2, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rows) != 0 {
		t.Errorf("rows = %d, want none", len(rows))
	}
}

// TestFigure7CtxCheckpointResume: a sweep interrupted mid-run leaves its
// completed cells in the checkpoint; resuming completes the sweep with rows
// bit-identical to an uninterrupted run, and a fully-populated checkpoint
// satisfies the whole sweep without executing a single cell.
func TestFigure7CtxCheckpointResume(t *testing.T) {
	want, err := Figure7(SA, false, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "fig7.json")
	fp := SweepFingerprint(9)

	// Stage 1: cancel once a few cells have been recorded. If the sweep
	// outruns the watcher the run just completes — the resume assertions
	// below hold either way.
	ck1, err := checkpoint.Open(path, fp, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for ck1.Len() < 3 {
			runtime.Gosched()
		}
		cancel()
	}()
	partial, err := Figure7Ctx(ctx, SA, false, 2, 9, 2, ck1)
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	t.Logf("stage 1: %d/%d cells complete (err=%v)", len(partial), len(want), err)
	byKey := map[Row]bool{}
	for _, r := range want {
		byKey[r] = true
	}
	for _, r := range partial {
		if !byKey[r] {
			t.Errorf("partial row %+v not in the clean sweep", r)
		}
	}

	// Stage 2: resume to completion.
	ck2, err := checkpoint.Open(path, fp, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Figure7Ctx(context.Background(), SA, false, 2, 9, 2, ck2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("resumed sweep differs from uninterrupted run")
	}

	// Stage 3: the checkpoint now holds every cell; even a cancelled
	// context resolves the full sweep from it.
	ck3, err := checkpoint.Open(path, fp, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	dead, cancel3 := context.WithCancel(context.Background())
	cancel3()
	cached, err := Figure7Ctx(dead, SA, false, 2, 9, 2, ck3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cached, want) {
		t.Error("checkpoint-only sweep differs from uninterrupted run")
	}
}
