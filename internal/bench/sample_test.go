package bench

import (
	"errors"
	"slices"
	"testing"
	"time"
)

// sink keeps the test's allocations reachable, so escape analysis
// cannot place them on the stack.
var sink [][]byte

// TestSample pins the sampler's contract: every op's median lies inside
// its min/max, the ops run round-robin in the given order with setup
// before each run, setup's allocations are not charged to the op, an op
// that allocates 1 MiB reports at least that many bytes, and the first
// error aborts.
func TestSample(t *testing.T) {
	var order []string
	delays := []time.Duration{time.Millisecond, 3 * time.Millisecond, 2 * time.Millisecond}
	run := 0
	ops, err := sample(3, func() error {
		order = append(order, "setup")
		sink = append(sink, make([]byte, 8<<20)) // untimed and not counted
		return nil
	}, func() error {
		order = append(order, "a")
		time.Sleep(delays[run%len(delays)])
		run++
		return nil
	}, func() error {
		order = append(order, "b")
		sink = append(sink, make([]byte, 1<<20))
		return nil
	})
	sink = nil
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Repeat([]string{"setup", "a", "setup", "b"}, 3)
	if !slices.Equal(order, want) {
		t.Fatalf("run order %v, want %v", order, want)
	}
	if len(ops) != 2 {
		t.Fatalf("got %d ops, want 2", len(ops))
	}
	for i, op := range ops {
		if op.MinNS <= 0 || op.MinNS > op.NS || op.NS > op.MaxNS {
			t.Fatalf("op %d: median %d outside [%d, %d]", i, op.NS, op.MinNS, op.MaxNS)
		}
	}
	if a := ops[0]; a.MinNS < int64(time.Millisecond) || a.NS < int64(2*time.Millisecond) ||
		a.MaxNS < int64(3*time.Millisecond) {
		t.Fatalf("sleeping op %+v: want min >= 1ms, median >= 2ms, max >= 3ms", a)
	}
	if a := ops[0]; a.BytesPerOp >= 1<<20 {
		t.Fatalf("the op that allocates nothing was charged %d bytes of setup", a.BytesPerOp)
	}
	if b := ops[1]; b.BytesPerOp < 1<<20 || b.BytesPerOp >= 8<<20 || b.AllocsPerOp < 1 {
		t.Fatalf("1 MiB op reports %d bytes in %d allocations, want [1 MiB, 8 MiB) in at least one",
			b.BytesPerOp, b.AllocsPerOp)
	}

	boom := errors.New("boom")
	calls := 0
	if _, err := sample(3, nil, func() error { calls++; return boom }); !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("failing op: err %v after %d calls, want boom after 1", err, calls)
	}
}
