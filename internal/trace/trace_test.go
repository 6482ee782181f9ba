package trace

import (
	"testing"

	"repro/internal/mem"
)

func instrs(n int) []Instr {
	out := make([]Instr, n)
	for i := range out {
		op := IntOp
		switch i % 4 {
		case 1:
			op = Load
		case 2:
			op = Store
		case 3:
			op = Branch
		}
		out[i] = Instr{PC: mem.Addr(i * 4), Op: op, Addr: mem.Addr(i * 64), Taken: i%8 == 3}
	}
	return out
}

func TestSliceStream(t *testing.T) {
	s := NewSliceStream(instrs(5))
	var in Instr
	for i := 0; i < 5; i++ {
		if !s.Next(&in) {
			t.Fatalf("stream ended early at %d", i)
		}
		if in.PC != mem.Addr(i*4) {
			t.Errorf("instr %d PC = %#x", i, in.PC)
		}
	}
	if s.Next(&in) {
		t.Error("exhausted stream should stay exhausted")
	}
	if s.Next(&in) {
		t.Error("Next after end must remain false")
	}
}

func TestLimit(t *testing.T) {
	s := NewLimit(NewSliceStream(instrs(10)), 3)
	var in Instr
	n := 0
	for s.Next(&in) {
		n++
	}
	if n != 3 {
		t.Errorf("limit yielded %d, want 3", n)
	}
	// Limit longer than the stream ends at the stream's end.
	s = NewLimit(NewSliceStream(instrs(2)), 100)
	n = 0
	for s.Next(&in) {
		n++
	}
	if n != 2 {
		t.Errorf("over-limit yielded %d, want 2", n)
	}
}

func TestDrainAndCountKinds(t *testing.T) {
	all := Drain(NewSliceStream(instrs(12)))
	if len(all) != 12 {
		t.Fatalf("Drain returned %d", len(all))
	}
	var counts [NumOpClasses]int
	for i, in := range all {
		if in != instrs(12)[i] {
			t.Fatalf("Drain()[%d] = %+v", i, in)
		}
		counts[in.Op]++
	}
	if counts[IntOp] != 3 || counts[Load] != 3 || counts[Store] != 3 || counts[Branch] != 3 {
		t.Errorf("counts = %v", counts)
	}
}

func TestMemOnly(t *testing.T) {
	s := NewMemOnly(NewSliceStream(instrs(12)))
	var in Instr
	n := 0
	for s.Next(&in) {
		if !in.Op.IsMem() {
			t.Fatalf("non-mem op %v leaked through", in.Op)
		}
		n++
	}
	if n != 6 { // 3 loads + 3 stores
		t.Errorf("mem ops = %d, want 6", n)
	}
}

func TestOpClassProperties(t *testing.T) {
	if !Load.IsMem() || !Store.IsMem() || IntOp.IsMem() || Branch.IsMem() {
		t.Error("IsMem wrong")
	}
	// Latency sanity: divides are the longest, simple ops single-cycle.
	if FPDiv.ExecLatency() <= FPOp.ExecLatency() || IntOp.ExecLatency() != 1 {
		t.Error("latency ordering wrong")
	}
	for op := OpClass(0); int(op) < NumOpClasses; op++ {
		if op.String() == "" || op.ExecLatency() < 1 {
			t.Errorf("op %d: name %q latency %d", op, op.String(), op.ExecLatency())
		}
	}
}
