package simclock_test

import (
	"testing"

	"thinbench/internal/simclock"
	"thinbench/internal/speed"
)

// TestQueueKindsAgree replays every full-length speed workload on the
// reference heap and on the calendar queue. The calendar queue is an
// optimization of the heap, so each workload must dispatch the identical
// event count under either; a divergence means the calendar queue
// reordered same-time events and the simulation is no longer
// queue-invariant.
func TestQueueKindsAgree(t *testing.T) {
	run := func(w speed.Workload) uint64 {
		events, err := w.Run(1999, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		return events
	}
	for _, w := range speed.Workloads(false) {
		heap := func() uint64 {
			defer simclock.UseHeapQueue()()
			return run(w)
		}()
		if cal := run(w); heap != cal {
			t.Errorf("%s: heap queue dispatched %d events, calendar %d — queue kind leaked into the simulation",
				w.Name, heap, cal)
		}
	}
}
