package core

import (
	"testing"
	"testing/quick"
)

func TestDeepValidation(t *testing.T) {
	if _, err := NewDeep(Config{Sets: 256}, 0); err == nil {
		t.Error("depth 0 accepted")
	}
	if _, err := NewDeep(Config{Sets: 256}, 17); err == nil {
		t.Error("depth 17 accepted")
	}
	if _, err := NewDeep(Config{Sets: 0}, 2); err == nil {
		t.Error("bad config accepted")
	}
}

func TestDepth1MatchesClassicMCT(t *testing.T) {
	// The depth-1 DeepMCT must agree with the standard MCT on any
	// eviction/classification interleaving.
	f := func(ops []uint16) bool {
		classic := MustNew(Config{Sets: 16})
		deep := MustNewDeep(Config{Sets: 16}, 1)
		for _, op := range ops {
			set := uint64(op) & 15
			tag := uint64(op >> 4 & 0xff)
			if op>>15 == 0 {
				classic.RecordEviction(set, tag)
				deep.RecordEviction(set, tag)
			} else if (classic.Classify(set, tag) == Conflict) != (deep.Classify(set, tag) == 1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeepCatchesHigherOrderConflicts(t *testing.T) {
	// The 3-way round-robin that blinds the depth-1 MCT: A,B,C rotate
	// through one direct-mapped set, so every miss's victim is two
	// evictions old. Depth 1 sees capacity; depth 2 sees order-2 conflict.
	shallow := MustNewDeep(Config{Sets: 4}, 1)
	deep := MustNewDeep(Config{Sets: 4}, 2)
	tags := []uint64{0xA, 0xB, 0xC}
	resident := uint64(0) // 0 = empty set
	for round := 0; round < 10; round++ {
		for _, tag := range tags {
			if round > 0 {
				if o := deep.Classify(0, tag); o != 2 {
					t.Fatalf("round %d tag %#x: deep order=%d, want order-2 conflict", round, tag, o)
				}
				if shallow.Classify(0, tag) != 0 {
					t.Fatalf("round %d tag %#x: shallow should be blind to order-2 conflicts", round, tag)
				}
			}
			// The fill evicts the current resident of the 1-way set.
			if resident != 0 {
				shallow.RecordEviction(0, resident)
				deep.RecordEviction(0, resident)
			}
			resident = tag
		}
	}
}

func TestDeepRecordCoalesces(t *testing.T) {
	m := MustNewDeep(Config{Sets: 2}, 3)
	m.RecordEviction(0, 0x1)
	m.RecordEviction(0, 0x2)
	m.RecordEviction(0, 0x1) // moves 1 to the front, no duplicate
	if o := m.Classify(0, 0x1); o != 1 {
		t.Errorf("tag 1 order = %d, want 1", o)
	}
	if o := m.Classify(0, 0x2); o != 2 {
		t.Errorf("tag 2 order = %d, want 2", o)
	}
	// A third distinct tag fills depth 3; a fourth drops the oldest.
	m.RecordEviction(0, 0x3)
	m.RecordEviction(0, 0x4)
	if o := m.Classify(0, 0x2); o != 0 {
		t.Errorf("oldest tag should have fallen off, got order %d", o)
	}
	if m.Classify(0, 0x4) != 1 || m.Classify(0, 0x3) != 2 || m.Classify(0, 0x1) != 3 {
		t.Error("history order wrong after wrap")
	}
}

func TestDeepPartialTags(t *testing.T) {
	m := MustNewDeep(Config{Sets: 2, TagBits: 4}, 2)
	m.RecordEviction(0, 0x12)
	if m.Classify(0, 0x22) != 1 {
		t.Error("partial tags should falsely match mod 16")
	}
	if m.Classify(0, 0x13) != 0 {
		t.Error("differing low bits must not match")
	}
}

func TestDeepStorageBits(t *testing.T) {
	m := MustNewDeep(Config{Sets: 256, TagBits: 10}, 2)
	// 2 tags x 10 bits + 2 bits of count per set.
	if got := m.StorageBits(0); got != 256*(20+2) {
		t.Errorf("storage = %d", got)
	}
}
