package bench

import (
	"runtime"
	"slices"
	"time"
)

// Op summarizes one operation over the runs of sample: the median,
// fastest and slowest wall time, and the mean heap allocations and bytes
// of one run. The numbers include whatever the operation really does
// (worker goroutines, result assembly, file writes), not just its kernel.
type Op struct {
	NS          int64 `json:"ns"`
	MinNS       int64 `json:"min_ns"`
	MaxNS       int64 `json:"max_ns"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

// sample runs ops round-robin, runs times each, so drift in the
// machine's load hits every op alike. Before each timed run it calls
// setup (when non-nil; untimed and not counted in the allocations) and
// runtime.GC, so one run's garbage is not collected inside the next. It
// returns one Op per op, in order; allocations come from runtime.MemStats
// deltas (monotonic counters, so a concurrent GC hides none). The first
// error aborts.
func sample(runs int, setup func() error, ops ...func() error) ([]Op, error) {
	ns := make([][]time.Duration, len(ops))
	allocs := make([]uint64, len(ops))
	bytes := make([]uint64, len(ops))
	var before, after runtime.MemStats
	for range runs {
		for i, op := range ops {
			if setup != nil {
				if err := setup(); err != nil {
					return nil, err
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			err := op()
			d := time.Since(start)
			runtime.ReadMemStats(&after)
			if err != nil {
				return nil, err
			}
			ns[i] = append(ns[i], d)
			allocs[i] += after.Mallocs - before.Mallocs
			bytes[i] += after.TotalAlloc - before.TotalAlloc
		}
	}
	out := make([]Op, len(ops))
	for i := range ops {
		out[i] = summary(ns[i])
		out[i].AllocsPerOp = int64(allocs[i]) / int64(runs)
		out[i].BytesPerOp = int64(bytes[i]) / int64(runs)
	}
	return out, nil
}

// summary is the wall-time part of an Op over the durations ds: their
// median (the upper one of an even count), minimum and maximum. It sorts
// ds in place.
func summary(ds []time.Duration) Op {
	slices.Sort(ds)
	return Op{
		NS:    ds[len(ds)/2].Nanoseconds(),
		MinNS: ds[0].Nanoseconds(),
		MaxNS: ds[len(ds)-1].Nanoseconds(),
	}
}
