package trace

import (
	"bytes"
	"errors"
	"testing"

	"securetlb/internal/isa"
)

// fuzzSeedTraces are hand-built traces covering every op kind, both flags,
// tainted-register masks and non-trivial final registers — the canonical
// encodings the fuzzer mutates from.
func fuzzSeedTraces() []*Trace {
	minimal := &Trace{Ops: []Op{{Kind: KindHalt}}}
	full := &Trace{
		Ops: []Op{
			{Kind: KindSecVictim, Arg: 1},
			{Kind: KindSecBase, Adv: 1, Arg: 0x1002},
			{Kind: KindSecSize, Arg: 4},
			{Kind: KindFlushAll},
			{Kind: KindSetASID, Arg: 1},
			{Kind: KindDLookup, PC: 6, Adv: 1, Arg: 0x1002},
			{Kind: KindIFetch, PC: 7, Arg: 0x400, Fold: true},
			{Kind: KindIFetch, PC: 8, Arg: 0x400},
			{Kind: KindExec, PC: 8, SkipBase: true, In: isa.Instr{Op: isa.OpCsrr, Rd: 28, CSR: isa.CSRTLBMissCount}},
			{Kind: KindSetReg, Reg: 3, Arg: 42},
			{Kind: KindExec, PC: 9, In: isa.Instr{Op: isa.OpSub, Rd: 30, Rs1: 29, Rs2: 28}},
			{Kind: KindFlushPage, Arg: 0x1003000},
			{Kind: KindFlushPageAll, Arg: 0x1003000},
			{Kind: KindFlushASID, Arg: 1},
			{Kind: KindExec, PC: 12, In: isa.Instr{Op: isa.OpAddi, Rd: 30, Rs1: 30, Imm: -4}},
			{Kind: KindHalt, PC: 13, Adv: 2, Arg: ^uint64(0)}, // exit -1
		},
		TaintedRegs: 1<<28 | 1<<30,
		DirtyRegs:   1<<3 | 1<<28 | 1<<30,
		Exit:        -1,
		Instret:     17,
	}
	full.FinalRegs[3] = 42
	full.FinalRegs[28] = 7
	full.FinalRegs[30] = 0xfffffffffffffffc
	return []*Trace{minimal, full}
}

// FuzzTraceDecode mirrors isa.FuzzDecode for the trace codec: Decode never
// panics, every rejection is ErrDecode-typed, and decode∘encode is the
// identity on everything accepted (canonical varints, checksum and
// halt-placement rules make each trace's encoding unique).
func FuzzTraceDecode(f *testing.F) {
	seeds := fuzzSeedTraces()
	for _, tr := range seeds {
		f.Add(Encode(tr))
	}
	valid := Encode(seeds[1])
	corrupt := func(idx int, b byte) {
		c := append([]byte(nil), valid...)
		c[idx%len(c)] ^= b
		f.Add(c)
	}
	corrupt(0, 0xff)            // magic
	corrupt(4, 0x01)            // version
	corrupt(5, 0x01)            // exit
	corrupt(8, 0xff)            // register area
	corrupt(40, 0x80)           // force a non-canonical varint
	corrupt(len(valid)-1, 0x1)  // checksum
	f.Add(valid[:len(valid)-9]) // truncated body, checksum stripped
	f.Add(valid[:4])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := Decode(b)
		if err != nil {
			if !errors.Is(err, ErrDecode) {
				t.Fatalf("Decode error is not ErrDecode-typed: %v", err)
			}
			return
		}
		if n := len(tr.Ops); n == 0 || tr.Ops[n-1].Kind != KindHalt {
			t.Fatalf("accepted trace does not end in halt")
		}
		for i := range tr.Ops {
			op := &tr.Ops[i]
			if op.Kind >= kindCount {
				t.Fatalf("accepted op %d has invalid kind %d", i, op.Kind)
			}
			if op.Kind == KindHalt && i != len(tr.Ops)-1 {
				t.Fatalf("accepted interior halt at op %d", i)
			}
			if op.Kind == KindSetReg && (op.Reg == 0 || op.Reg >= isa.NumRegs) {
				t.Fatalf("accepted op %d with bad set-reg target %d", i, op.Reg)
			}
			if op.Kind == KindExec && !execOpOK(op.In.Op) {
				t.Fatalf("accepted op %d embedding %s", i, op.In.Op)
			}
		}
		if re := Encode(tr); !bytes.Equal(re, b) {
			t.Fatalf("decode/encode not byte-identical:\n in:  %x\n out: %x", b, re)
		}
	})
}
