package server

import (
	"testing"

	"thinbench/internal/display"
	"thinbench/internal/proto/protos"
	"thinbench/internal/schedule"
	"thinbench/internal/simclock"
)

// BenchmarkEchoPath measures the steady-state echo pipeline and nothing
// else, once per protocol: a contended server is built and warmed outside
// the timer, and each iteration injects one keystroke per user and drains
// the engine through the full path — input encode, link transfer,
// scheduler dispatch, input validation, echo encode, client apply. The
// allocation report is the pipeline's regression canary and must read
// 0 allocs/op for every protocol (TestEchoPathIsAllocationFree asserts
// it): pooled echo ops, scratch encoders, payload-carrying events, and
// shared delivery callbacks leave nothing to allocate per interaction, so
// any nonzero count means a closure or scratch buffer crept back onto the
// hot path.
func BenchmarkEchoPath(b *testing.B) {
	for _, name := range protos.Names() {
		b.Run(name, func(b *testing.B) {
			step := echoPathLoop(b, name)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
		})
	}
}

// TestEchoPathIsAllocationFree is BenchmarkEchoPath's budget as a gate:
// one keystroke per user through the warmed pipeline allocates nothing,
// for every protocol. The race detector allocates on its own account, so
// the gate holds only in a plain build.
func TestEchoPathIsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under -race")
	}
	names := protos.Names()
	if len(names) != 5 {
		t.Fatalf("%d protocols registered, want 5: %v", len(names), names)
	}
	for _, name := range names {
		step := echoPathLoop(t, name)
		if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
			t.Errorf("%s: echo path allocates %v allocs/op, want 0", name, allocs)
		}
	}
}

// echoPathLoop builds a contended four-user server for the protocol and
// warms it; each call of the returned step injects one keystroke per user
// and drains the engine through one interaction period.
func echoPathLoop(tb testing.TB, protocol string) (step func()) {
	cfg := DefaultConfig()
	cfg.Users = 4
	cfg.Protocol = protocol
	cfg.Scheduler = "rr"
	cfg.Seed = 7
	srv, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	period := simclock.Duration(1e6 / cfg.InteractionsPerSec)
	for _, u := range srv.users {
		u.keyEv[0] = display.KeyEvent{Down: true, Code: uint16(30 + u.idx%26)}
	}
	step = func() {
		for _, u := range srv.users {
			srv.keystroke(u, srv.eng.Now(), u.keyEv[:])
		}
		srv.eng.RunFor(period)
	}
	// Warm every pool to its high-water mark — echo ops, work items,
	// engine events, calendar buckets, encoder scratch, the sample logs'
	// first growth doublings — so the measured loop sees steady state.
	for i := 0; i < 200; i++ {
		step()
	}
	return step
}

// BenchmarkLoginStorm measures session churn end to end: the office-day
// profile compiled over a small population, so every run pays the full
// arrival pipeline — handshake bytes on the contended link, login
// page-ins, process creation, codec setup, departure teardown — with the
// session pool recycling wiring across episodes. Unlike the echo path
// this is not expected to reach zero (each fresh server allocates its
// substrate), but the report ratchets the per-login cost the same way
// BENCH_speed ratchets allocs/event.
func BenchmarkLoginStorm(b *testing.B) {
	prof, ok := schedule.Builtin("officeday")
	if !ok {
		b.Fatal("builtin officeday profile missing")
	}
	cfg := DefaultConfig()
	cfg.Users = 24
	cfg.Protocol = "rdp"
	cfg.Scheduler = "rr"
	cfg.Schedule = &prof
	cfg.Span = 10 * simclock.Second
	cfg.Seed = 7
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		srv, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
