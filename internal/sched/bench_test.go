package sched

import (
	"testing"

	"thinbench/internal/simclock"
)

// dispatchLoop builds a CPU under the named policy with the server's
// thread shape — per user, a GUI-boosted application thread that hands
// each finished item to an encoder thread one priority below it, plus one
// low-priority background hog — and warms the item pool. Each call of the
// returned step submits one 30 ms hog item, then one input item per user
// every 10 ms, and ends 50 ms after it began, at about 84% utilization:
// the hog's item spans several quanta, inputs arrive while it runs (under
// NT each input wake preempts it), and every item is dispatched,
// completed and recycled within the step.
func dispatchLoop(tb testing.TB, policy string) (step func()) {
	eng := simclock.NewEngine()
	var s Scheduler
	switch policy {
	case "rr":
		s = NewRRSched(10 * simclock.Millisecond)
	case "nt":
		s = NewNTSched(DefaultNTConfig())
	default:
		tb.Fatalf("unknown policy %q", policy)
	}
	cpu := NewCPU(eng, s, simclock.Second)
	const users = 4
	var apps, encs [users]*Thread
	for i := range apps {
		apps[i] = cpu.NewThread("app", 9)
		apps[i].GUIBoost = true
		encs[i] = cpu.NewThread("enc", 8)
	}
	hog := cpu.NewThread("bg", 4)
	// encode and input are bound once, as the server binds its pipeline
	// callbacks, so a step schedules no fresh closures.
	encode := func(it *WorkItem, _ simclock.Time, _ int) {}
	input := func(it *WorkItem, _ simclock.Time, _ int) {
		enc := cpu.Acquire()
		enc.Tag, enc.CPU, enc.OnDone = "encode", 2*simclock.Millisecond, encode
		cpu.Submit(encs[it.A], enc)
	}
	step = func() {
		bg := cpu.Acquire()
		bg.Tag, bg.CPU = "bg", 30*simclock.Millisecond
		cpu.Submit(hog, bg)
		for i, th := range apps {
			eng.RunFor(10 * simclock.Millisecond)
			it := cpu.Acquire()
			it.Tag, it.CPU, it.OnDone, it.A = "input", simclock.Millisecond, input, i
			cpu.Submit(th, it)
		}
		eng.RunFor(10 * simclock.Millisecond)
	}
	for i := 0; i < 200; i++ {
		step()
	}
	return step
}

// BenchmarkSchedDispatch measures the scheduler layer's steady state on
// round-robin and NT: Acquire, Submit, dispatch, slice completion and
// item recycling, with the pools already at their high-water mark.
func BenchmarkSchedDispatch(b *testing.B) {
	for _, policy := range []string{"rr", "nt"} {
		b.Run(policy, func(b *testing.B) {
			step := dispatchLoop(b, policy)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// TestRRDispatchIsAllocationFree is BenchmarkSchedDispatch's round-robin
// budget as a gate: with warmed pools, a step of submissions, slices,
// quantum expiries and completions allocates nothing. NT is not gated:
// each preemption re-queues the displaced thread at the head of its
// level through a fresh slice (NTSched.Enqueue), which the benchmark
// reports.
func TestRRDispatchIsAllocationFree(t *testing.T) {
	step := dispatchLoop(t, "rr")
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Fatalf("rr dispatch: %v allocs/op, want 0", allocs)
	}
}
