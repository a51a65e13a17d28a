package vm

import (
	"reflect"
	"testing"
	"testing/quick"

	"thinbench/internal/simclock"
)

func smallConfig() Config {
	return Config{
		PhysicalKB:   64, // 16 frames of 4 KB
		PageKB:       4,
		SwapSeek:     8 * simclock.Millisecond,
		SwapPage:     500 * simclock.Microsecond,
		ClusterPages: 4,
	}
}

// TestFrameIsPointerFree guards the frame table's layout: a pointer in
// frame (an owner *Process, say) makes the collector scan every frame and
// puts a write barrier on every page-in and eviction.
func TestFrameIsPointerFree(t *testing.T) {
	ft := reflect.TypeOf(frame{})
	for i := 0; i < ft.NumField(); i++ {
		// Bool through Complex128 are the kinds that never hold a pointer.
		if f := ft.Field(i); f.Type.Kind() > reflect.Complex128 {
			t.Errorf("frame.%s is a %s, not a pointer-free scalar", f.Name, f.Type)
		}
	}
}

func TestTouchFaultsOnlyOnce(t *testing.T) {
	m := New(smallConfig())
	p := m.NewProcess("p", 16)
	if !m.Touch(p, 0) {
		t.Fatal("first touch should fault")
	}
	if m.Touch(p, 0) {
		t.Fatal("second touch should hit")
	}
	if p.Resident() != 1 {
		t.Fatalf("resident = %d, want 1", p.Resident())
	}
	if got := m.Stats().Faults; got != 1 {
		t.Fatalf("faults = %d, want 1", got)
	}
}

func TestTouchAllAndSpan(t *testing.T) {
	m := New(smallConfig())
	p := m.NewProcess("p", 32) // 8 pages
	if f := m.TouchAll(p); f != 8 {
		t.Fatalf("TouchAll faults = %d, want 8", f)
	}
	if f := m.TouchAll(p); f != 0 {
		t.Fatalf("second TouchAll faults = %d, want 0", f)
	}
	m.Evict(p, 2)
	m.Evict(p, 3)
	// Span covering pages 2..3 (KB 8..16).
	if f := m.TouchSpan(p, 8, 8); f != 2 {
		t.Fatalf("TouchSpan faults = %d, want 2", f)
	}
}

func TestTouchOutOfRangePanics(t *testing.T) {
	m := New(smallConfig())
	p := m.NewProcess("p", 8)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range touch did not panic")
		}
	}()
	m.Touch(p, 99)
}

func TestEvictionWhenFull(t *testing.T) {
	m := New(smallConfig()) // 16 frames
	a := m.NewProcess("a", 64)
	b := m.NewProcess("b", 64)
	m.TouchAll(a) // fills memory
	if m.FreePages() != 0 {
		t.Fatalf("free = %d, want 0", m.FreePages())
	}
	m.TouchAll(b) // forces eviction of a
	if a.Resident()+b.Resident() != m.TotalPages() {
		t.Fatalf("resident %d+%d != total %d", a.Resident(), b.Resident(), m.TotalPages())
	}
	if m.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	m := New(smallConfig())
	sys := m.NewProcess("sys", 24) // 6 pages pinned
	sys.Pinned = true
	m.TouchAll(sys)
	hog := m.NewProcess("hog", 256)
	m.TouchAll(hog)
	m.TouchAll(hog)
	if sys.Resident() != 6 {
		t.Fatalf("pinned process lost pages: resident = %d, want 6", sys.Resident())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllPinnedPanics(t *testing.T) {
	m := New(smallConfig())
	sys := m.NewProcess("sys", 64)
	sys.Pinned = true
	m.TouchAll(sys)
	other := m.NewProcess("other", 4)
	defer func() {
		if recover() == nil {
			t.Fatal("allocation with all frames pinned did not panic")
		}
	}()
	m.Touch(other, 0)
}

func TestClockSecondChance(t *testing.T) {
	cfg := smallConfig()
	m := New(cfg)
	a := m.NewProcess("a", 32) // 8 pages
	b := m.NewProcess("b", 64) // 16 pages
	m.TouchAll(a)
	// Fill the rest with b, then keep streaming b. a's pages are
	// referenced; they survive the first sweep but fall on later ones.
	m.TouchAll(b)
	m.TouchAll(b)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if a.Resident()+b.Resident() != m.TotalPages() {
		t.Fatal("accounting broken after clock churn")
	}
}

func TestInteractiveReservation(t *testing.T) {
	cfg := smallConfig()
	cfg.ReserveInteractive = true
	m := New(cfg)
	editor := m.NewProcess("editor", 24) // 6 pages, interactive
	editor.Interactive = true
	m.TouchAll(editor)
	hog := m.NewProcess("hog", 512)
	m.TouchAll(hog)
	m.TouchAll(hog)
	if editor.Resident() != 6 {
		t.Fatalf("reservation failed: editor resident = %d, want 6", editor.Resident())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReservationFallbackWhenOnlyInteractiveLeft(t *testing.T) {
	cfg := smallConfig()
	cfg.ReserveInteractive = true
	m := New(cfg)
	editor := m.NewProcess("editor", 64) // claims everything, interactive
	editor.Interactive = true
	m.TouchAll(editor)
	hog := m.NewProcess("hog", 8)
	// Nothing but interactive pages exist; the hog must still make progress.
	if !m.Touch(hog, 0) {
		t.Fatal("expected a fault")
	}
	if hog.Resident() != 1 {
		t.Fatal("hog failed to allocate despite fallback")
	}
}

func TestHogThrottleSelfEvicts(t *testing.T) {
	cfg := smallConfig()
	cfg.HogFrameLimit = 0.25 // at most 4 of 16 frames
	m := New(cfg)
	editor := m.NewProcess("editor", 24)
	editor.Interactive = true
	m.TouchAll(editor)
	hog := m.NewProcess("hog", 512)
	m.TouchAll(hog)
	if hog.Resident() > 4 {
		t.Fatalf("throttled hog owns %d frames, limit 4", hog.Resident())
	}
	if editor.Resident() != 6 {
		t.Fatalf("editor lost pages to a throttled hog: %d/6 resident", editor.Resident())
	}
	if m.Stats().SelfEvict == 0 {
		t.Fatal("no self-evictions recorded")
	}
}

func TestEvictAllReleasesFrames(t *testing.T) {
	m := New(smallConfig())
	p := m.NewProcess("p", 32)
	m.TouchAll(p)
	free := m.FreePages()
	m.EvictAll(p)
	if p.Resident() != 0 {
		t.Fatal("EvictAll left resident pages")
	}
	if m.FreePages() != free+8 {
		t.Fatalf("free pages = %d, want %d", m.FreePages(), free+8)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultCostClustering(t *testing.T) {
	m := New(smallConfig()) // seek 8ms, page 0.5ms, cluster 4
	if got := m.FaultCost(0); got != 0 {
		t.Fatalf("FaultCost(0) = %v, want 0", got)
	}
	// 8 faults = 2 clusters: 2*8ms + 8*0.5ms = 20ms.
	if got := m.FaultCost(8); got != 20*simclock.Millisecond {
		t.Fatalf("FaultCost(8) = %v, want 20ms", got)
	}
	// 9 faults = 3 clusters: 24 + 4.5 = 28.5ms.
	if got := m.FaultCost(9); got != simclock.Duration(28500) {
		t.Fatalf("FaultCost(9) = %v, want 28.5ms", got)
	}
}

func TestFreeKBAndResidentKB(t *testing.T) {
	m := New(smallConfig())
	p := m.NewProcess("p", 16)
	m.TouchAll(p)
	if m.ResidentKB(p) != 16 {
		t.Fatalf("ResidentKB = %d, want 16", m.ResidentKB(p))
	}
	if m.FreeKB() != 64-16 {
		t.Fatalf("FreeKB = %d, want 48", m.FreeKB())
	}
}

// Property: under arbitrary touch/evict interleavings, the frame accounting
// invariants hold.
func TestInvariantsUnderRandomOps(t *testing.T) {
	f := func(ops []uint16, seed uint64) bool {
		cfg := smallConfig()
		cfg.PhysicalKB = 128
		m := New(cfg)
		procs := []*Process{
			m.NewProcess("a", 96),
			m.NewProcess("b", 200),
			m.NewProcess("c", 64),
		}
		procs[0].Interactive = true
		for _, op := range ops {
			p := procs[int(op)%len(procs)]
			page := (int(op) / 4) % p.Pages()
			switch (op >> 13) % 3 {
			case 0, 1:
				m.Touch(p, page)
			case 2:
				m.Evict(p, page)
			}
		}
		return m.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPagingScenarioLowDemand(t *testing.T) {
	s := PagingScenario{
		Config:       DefaultConfig(),
		SystemKB:     17 * 1024,
		EditorKB:     2 * 1024,
		HogFactor:    0.3, // well under available memory
		HogSeconds:   30,
		BaseResponse: 50 * simclock.Millisecond,
	}
	res := s.Run(simclock.NewRand(1))
	if res.EditorFaults != 0 {
		t.Fatalf("low demand run faulted %d pages, want 0", res.EditorFaults)
	}
	if res.Latency != 50*simclock.Millisecond {
		t.Fatalf("low demand latency = %v, want exactly 50ms", res.Latency)
	}
}

func TestPagingScenarioHighDemand(t *testing.T) {
	s := PagingScenario{
		Config:       DefaultConfig(),
		SystemKB:     17 * 1024,
		EditorKB:     4 * 1024,
		HogFactor:    1.2,
		HogSeconds:   30,
		BaseResponse: 50 * simclock.Millisecond,
	}
	res := s.Run(simclock.NewRand(1))
	if res.EditorEvicted == 0 {
		t.Fatal("streamer failed to evict the editor")
	}
	if res.Latency <= 100*simclock.Millisecond {
		t.Fatalf("high demand latency = %v, want well beyond perception threshold", res.Latency)
	}
	if res.HogTouches == 0 {
		t.Fatal("hog did no work")
	}
}

func TestPagingScenarioReservationFixes(t *testing.T) {
	base := PagingScenario{
		Config:       DefaultConfig(),
		SystemKB:     17 * 1024,
		EditorKB:     4 * 1024,
		HogFactor:    1.2,
		HogSeconds:   30,
		BaseResponse: 50 * simclock.Millisecond,
	}
	fixed := base
	fixed.Config.ReserveInteractive = true
	if res := fixed.Run(simclock.NewRand(1)); res.Latency != 50*simclock.Millisecond {
		t.Fatalf("reservation run latency = %v, want 50ms", res.Latency)
	}
	throttled := base
	throttled.Config.HogFrameLimit = 0.5
	if res := throttled.Run(simclock.NewRand(1)); res.Latency != 50*simclock.Millisecond {
		t.Fatalf("throttled run latency = %v, want 50ms", res.Latency)
	}
}

func TestPagingScenarioRunNSpread(t *testing.T) {
	s := PagingScenario{
		Config:             DefaultConfig(),
		SystemKB:           17 * 1024,
		EditorKB:           4 * 1024,
		HogFactor:          1.2,
		HogSeconds:         30,
		BaseResponse:       50 * simclock.Millisecond,
		SeekJitterFrac:     0.3,
		RandomizeKeystroke: true,
		RefaultProb:        0.3,
	}
	results := s.RunN(10, 42)
	if len(results) != 10 {
		t.Fatalf("RunN returned %d results", len(results))
	}
	min, max := results[0].Latency, results[0].Latency
	for _, r := range results {
		if r.Latency < min {
			min = r.Latency
		}
		if r.Latency > max {
			max = r.Latency
		}
	}
	if max <= min {
		t.Fatal("RunN produced no spread; randomization is broken")
	}
	if float64(max) < 1.5*float64(min) {
		t.Fatalf("spread too tight: min=%v max=%v", min, max)
	}
}

func TestScenarioDeterminism(t *testing.T) {
	s := PagingScenario{
		Config:             DefaultConfig(),
		SystemKB:           17 * 1024,
		EditorKB:           4 * 1024,
		HogFactor:          1.2,
		HogSeconds:         30,
		BaseResponse:       50 * simclock.Millisecond,
		SeekJitterFrac:     0.3,
		RandomizeKeystroke: true,
		RefaultProb:        0.3,
	}
	a := s.RunN(5, 7)
	b := s.RunN(5, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run %d differs between identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
}
