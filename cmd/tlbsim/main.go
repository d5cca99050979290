// Command tlbsim assembles and runs a program on the simulated processor,
// with a selectable D-TLB design — the smallest way to experiment with the
// paper's hardware. Programs use the Figure 6 dialect (see internal/asm):
// RISC-V-style mnemonics, ldnorm/ldrand, the security CSRs, and .data with
// .dword/.page/.org directives.
//
// Usage:
//
//	tlbsim prog.s                          # 4W-32 SA TLB
//	tlbsim -tlb rf -entries 32 -ways 8 -seed 7 prog.s
//	tlbsim -tlb sp -victim-ways 4 prog.s
//	echo 'pass' | tlbsim -                 # read from stdin
//
// With -server, tlbsim is instead a client for the tlbserved daemon:
//
//	tlbsim -server http://host:8321 -campaign secbench -design sa -trials 500
//	tlbsim -server http://host:8321 -campaign perf -secure
//	tlbsim -server http://host:8321 -job <id>      # attach to a job's stream
//	tlbsim -server http://host:8321 -cancel <id>
//	tlbsim -server http://host:8321 -metrics
//
// After the run, the exit code, registers x1-x31 (non-zero only), counters
// and TLB statistics are printed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"securetlb/internal/asm"
	"securetlb/internal/cpu"
	"securetlb/internal/design"
	"securetlb/internal/tlb"
)

func main() {
	tlbCode := flag.String("tlb", "sa", "D-TLB design: "+design.Security.Codes()+", or 1e (the one-entry SA TLB)")
	entries := flag.Int("entries", 32, "TLB entries")
	ways := flag.Int("ways", 4, "TLB ways (ignored for fa/1e)")
	victimWays := flag.Int("victim-ways", 0, "SP victim partition ways (default half)")
	seed := flag.Uint64("seed", 1, "RF/RI PRNG seed")
	rekeyFills := flag.Uint64("rekey-fills", 16, "RI re-key period in fills (0 disables re-keying)")
	memLatency := flag.Uint64("mem-latency", 20, "memory access latency in cycles (walk = 3x)")
	maxInstr := flag.Uint64("max-instr", 10_000_000, "instruction budget")
	varFlush := flag.Bool("variable-flush", false, "enable Appendix B variable-timing invalidation")

	var client clientFlags
	flag.StringVar(&client.server, "server", "", "tlbserved base URL; switches to client mode")
	flag.StringVar(&client.campaign, "campaign", "", "campaign kind to submit: secbench or perf (client mode)")
	flag.StringVar(&client.design, "design", "all", "campaign designs: "+design.Security.Usage()+"; perf campaigns take no fa (client mode)")
	flag.IntVar(&client.trials, "trials", 0, "secbench trials per behaviour, 0 = server default (client mode)")
	flag.BoolVar(&client.extended, "extended", false, "Appendix B benchmark set (client mode)")
	flag.BoolVar(&client.invariants, "invariants", false, "enable runtime invariant checking (client mode)")
	flag.BoolVar(&client.secure, "secure", false, "SecRSA perf sweep variant (client mode)")
	flag.IntVar(&client.decrypts, "decrypts", 0, "perf decryptions per run, 0 = server default (client mode)")
	flag.StringVar(&client.jobID, "job", "", "attach to an existing job ID (client mode)")
	flag.StringVar(&client.cancelID, "cancel", "", "cancel a job ID (client mode)")
	flag.BoolVar(&client.metrics, "metrics", false, "print the daemon's metrics (client mode)")
	flag.DurationVar(&client.timeout, "timeout", 10*time.Second, "connect and response-header timeout (client mode)")
	flag.IntVar(&client.retries, "retries", 4, "connection-failure retries per request, with backoff (client mode)")
	flag.Parse()

	if client.server != "" {
		client.seed = *seed
		os.Exit(runClient(client))
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tlbsim [flags] prog.s   (use - for stdin)")
		os.Exit(2)
	}
	src, err := readSource(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := asm.Assemble(src)
	if err != nil {
		fatal(err)
	}

	machine, err := cpu.NewSystem(*memLatency, func(w tlb.Walker) (tlb.TLB, error) {
		if *tlbCode == "1e" {
			return design.SA.New(1, 1, 0, 0, 0, w)
		}
		d, ok := design.ByCode(*tlbCode)
		if !ok {
			return nil, fmt.Errorf("unknown TLB design %q", *tlbCode)
		}
		return d.New(*entries, *ways, *victimWays, *seed, *rekeyFills, w)
	})
	if err != nil {
		fatal(err)
	}
	if *varFlush {
		cfg := cpu.DefaultConfig
		cfg.VariableFlushTiming = true
		machine = cpu.New(machine.TLB, machine.PT, machine.Mem, cfg)
	}
	// Map the program for the attacker (0) and victim (1) process IDs the
	// benchmark dialect uses.
	if err := machine.Load(prog, []tlb.ASID{0, 1}); err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	code, err := machine.RunCtx(ctx, *maxInstr)
	if err != nil {
		switch {
		case errors.Is(err, context.Canceled):
			fmt.Fprintf(os.Stderr, "tlbsim: interrupted after %d instructions\n", machine.Instret())
			os.Exit(130)
		case errors.Is(err, cpu.ErrFuelExhausted):
			fatal(fmt.Errorf("%w after %d instructions (raise -max-instr)", err, machine.Instret()))
		default:
			fatal(err)
		}
	}

	if code == 0 {
		fmt.Println("exit: PASS (0)")
	} else {
		fmt.Printf("exit: FAIL (%d)\n", code)
	}
	fmt.Printf("instructions: %d   cycles: %d   IPC: %.3f\n",
		machine.Instret(), machine.Cycles(),
		float64(machine.Instret())/float64(machine.Cycles()))
	st := machine.TLB.Stats()
	fmt.Printf("%s: lookups %d, hits %d, misses %d (%.1f%%), random fills %d\n",
		machine.TLB.Name(), st.Lookups, st.Hits, st.Misses, 100*st.MissRate(), st.RandomFills)
	fmt.Println("registers (non-zero):")
	for i := 1; i < 32; i++ {
		if v := machine.Reg(i); v != 0 {
			fmt.Printf("  x%-2d = %d (%#x)\n", i, v, v)
		}
	}
	if code != 0 {
		os.Exit(1)
	}
}

func readSource(path string) (string, error) {
	if path == "-" {
		b, err := io.ReadAll(os.Stdin)
		return string(b), err
	}
	b, err := os.ReadFile(path)
	return string(b), err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tlbsim:", err)
	os.Exit(1)
}
