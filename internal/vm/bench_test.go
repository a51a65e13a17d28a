package vm

import "testing"

// pressureLoop builds a machine under memory pressure: two processes whose
// pages outnumber the frames by half, touched in a scattered cycle, so
// every touch faults and the clock hand reclaims a frame from whichever
// process owns it. The returned touch references the cycle's n-th page;
// the loop is warmed past the point where free frames run out, so every
// later touch is steady state.
func pressureLoop() (*Manager, func(n int)) {
	cfg := DefaultConfig()
	cfg.PhysicalKB = 4 * 1024 // 1,024 frames
	m := New(cfg)
	procs := []*Process{m.NewProcess("app", 4*1024), m.NewProcess("hog", 2*1024)}
	pages := procs[0].Pages() + procs[1].Pages()
	touch := func(n int) {
		// 7919 is a prime that does not divide pages, so the cycle visits
		// every page before repeating.
		i := (n * 7919) % pages
		if p := procs[0]; i < p.Pages() {
			m.Touch(p, i)
		} else {
			m.Touch(procs[1], i-p.Pages())
		}
	}
	for n := 0; n < 2*pages; n++ {
		touch(n)
	}
	return m, touch
}

// BenchmarkVMTouch measures the per-touch path under memory pressure:
// Touch, allocFrame and clockReclaim on every iteration.
func BenchmarkVMTouch(b *testing.B) {
	m, touch := pressureLoop()
	faults := m.Stats().Faults
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		touch(n)
	}
	b.ReportMetric(float64(m.Stats().Faults-faults)/float64(b.N), "faults/op")
}

// TestTouchUnderPressureIsAllocationFree is BenchmarkVMTouch's budget as
// a gate: a faulting touch that reclaims a frame allocates nothing.
func TestTouchUnderPressureIsAllocationFree(t *testing.T) {
	m, touch := pressureLoop()
	faults := m.Stats().Faults
	n := 0
	allocs := testing.AllocsPerRun(1000, func() {
		touch(n)
		n++
	})
	if allocs != 0 {
		t.Fatalf("touch under pressure: %v allocs/op, want 0", allocs)
	}
	if m.Stats().Faults == faults {
		t.Fatal("no touch faulted; the loop is not under memory pressure")
	}
}
