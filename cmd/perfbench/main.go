// Command perfbench runs the performance evaluation of §6 and prints the
// IPC and MPKI data behind Figures 7a–7f: each TLB design across the seven
// configurations, with RSA (or SecRSA) alone and alongside each SPEC 2006
// stand-in.
//
// Usage:
//
//	perfbench                         # all designs, RSA and SecRSA, 50 runs
//	perfbench -design rf -decrypts 150
//	perfbench -sweep -checkpoint sweep.json         # resumable full sweep
//	perfbench -sweep -checkpoint sweep.json -resume
//
// SIGINT/SIGTERM stop the sweep gracefully: no new cells start, running
// cells drain, completed cells are printed, a final checkpoint is flushed,
// and the process exits with status 130.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"securetlb/internal/checkpoint"
	"securetlb/internal/design"
	"securetlb/internal/perf"
	"securetlb/internal/pool"
)

func main() {
	selector := flag.String("design", "all", "designs to run: "+design.Perf.Usage())
	decrypts := flag.Int("decrypts", 50, "RSA decryptions per run (paper: 50/100/150)")
	sweep := flag.Bool("sweep", false, "run the paper's full 50/100/150 decryption sweep")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	seed := flag.Uint64("seed", 1, "PRNG seed")
	parallel := flag.Int("parallel", 0, "worker pool size for the cell sweep (0 = all CPUs)")
	ckPath := flag.String("checkpoint", "", "checkpoint file: completed Figure 7 cells are recorded here")
	resume := flag.Bool("resume", false, "with -checkpoint: resume from an existing checkpoint file")
	ckEvery := flag.Int("checkpoint-every", 4, "flush the checkpoint every N completed cells")
	noTrace := flag.Bool("no-trace", false, "disable captured-stream replay; run every cell's generators in full (bit-identical, slower)")
	flag.Parse()
	perf.DisableTrace = *noTrace

	designs, err := validateFlags(*selector, *decrypts, *parallel, *ckEvery, *resume, *ckPath)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var ck *checkpoint.File
	if *ckPath != "" {
		if ck, err = checkpoint.Open(*ckPath, perf.SweepFingerprint(*seed), *ckEvery, *resume); err != nil {
			fatal(err)
		}
		if *resume && ck.Len() > 0 {
			fmt.Fprintf(os.Stderr, "perfbench: resuming from %s (%d cells already complete)\n", *ckPath, ck.Len())
		}
	}

	p := pool.New(*parallel)
	runCounts := []int{*decrypts}
	if *sweep {
		runCounts = []int{50, 100, 150}
	}
	if *jsonOut {
		var all []perf.Row
		var interrupted error
	jsonSweep:
		for _, d := range designs {
			for _, secure := range []bool{false, true} {
				for _, n := range runCounts {
					rows, err := perf.Figure7Pool(ctx, d, secure, n, *seed, p, ck)
					all = append(all, rows...)
					if err != nil {
						if !isInterrupt(err) {
							fatal(err)
						}
						interrupted = err
						break jsonSweep
					}
				}
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			fatal(err)
		}
		exitIfInterrupted(interrupted, *ckPath)
		return
	}
	var interrupted error
sweepLoop:
	for _, d := range designs {
		for _, secure := range []bool{false, true} {
			for _, decrypts := range runCounts {
				fmt.Print(perf.SweepHeader(d, secure, decrypts, p.Size()))
				rows, err := perf.Figure7Pool(ctx, d, secure, decrypts, *seed, p, ck)
				if err != nil && !isInterrupt(err) {
					fatal(err)
				}
				fmt.Print(perf.FormatRows(rows))
				if err != nil {
					interrupted = err
					break sweepLoop
				}
			}
		}
	}
	if interrupted == nil {
		printHeadlines(runCounts[0], *seed)
	}
	exitIfInterrupted(interrupted, *ckPath)
}

// validateFlags rejects invalid flag combinations up front with a clear
// message, instead of letting a bad value fail deep inside the sweep. It
// returns the designs the -design selector names.
func validateFlags(selector string, decrypts, parallel, ckEvery int, resume bool, ckPath string) ([]perf.Design, error) {
	designs, err := design.Perf.Parse(selector)
	if err != nil {
		return nil, err
	}
	if decrypts <= 0 {
		return nil, fmt.Errorf("-decrypts must be positive, got %d", decrypts)
	}
	if parallel < 0 {
		return nil, fmt.Errorf("-parallel must be >= 0 (0 = all CPUs), got %d", parallel)
	}
	if ckEvery < 1 {
		return nil, fmt.Errorf("-checkpoint-every must be >= 1, got %d", ckEvery)
	}
	if resume && ckPath == "" {
		return nil, errors.New("-resume requires -checkpoint")
	}
	return designs, nil
}

func isInterrupt(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func exitIfInterrupted(err error, ckPath string) {
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "perfbench: interrupted — results above cover the completed cells only")
	if ckPath != "" {
		fmt.Fprintf(os.Stderr, "perfbench: progress saved; continue with -checkpoint %s -resume\n", ckPath)
	} else {
		fmt.Fprintln(os.Stderr, "perfbench: rerun with -checkpoint FILE to make interrupted runs resumable")
	}
	os.Exit(130)
}

// printHeadlines reproduces the §6.3–6.5 summary ratios.
func printHeadlines(decrypts int, seed uint64) {
	g4w32 := perf.Geometry{Label: "4W 32", Entries: 32, Ways: 4}
	mpki := func(d perf.Design, secure bool) float64 {
		sum, n := 0.0, 0
		for _, spec := range specsAndNil() {
			row, err := perf.Cell(d, g4w32, spec, secure, decrypts, seed)
			if err != nil {
				fatal(err)
			}
			sum += row.Metrics.MPKI
			n++
		}
		return sum / float64(n)
	}
	sa := mpki(perf.SA, false)
	sp := mpki(perf.SP, true)
	rf := mpki(perf.RF, true)
	fmt.Println("Headline ratios at 4W 32 (cf. §6.4–6.5):")
	fmt.Printf("  SP/SA MPKI: %.2fx (paper ~3.07x)\n", sp/sa)
	fmt.Printf("  RF/SA MPKI: %+.1f%% (paper ~+9.0%%)\n", 100*(rf-sa)/sa)
	fmt.Printf("  RF vs SP MPKI: %+.1f%% (paper ~-64.5%%)\n", 100*(rf-sp)/sp)
}

func specsAndNil() []perfGen {
	suite := perfSpecSuite()
	return append([]perfGen{nil}, suite...)
}
