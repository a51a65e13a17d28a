package speed_test

import (
	"testing"

	"thinbench/internal/speed"
)

// TestWorkloadsSmoke runs every canonical quick workload once and checks
// it actually exercises the simulator: a workload that dispatches zero
// events is timing an empty loop, and the speed numbers it reports are
// fiction.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range speed.Workloads(true) {
		events, err := w.Run(1999, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if events == 0 {
			t.Fatalf("%s: workload dispatched zero simulator events", w.Name)
		}
		again, err := w.Run(1999, 1)
		if err != nil {
			t.Fatalf("%s (rerun): %v", w.Name, err)
		}
		if again != events {
			t.Fatalf("%s: event count not deterministic: %d then %d", w.Name, events, again)
		}
	}
}
