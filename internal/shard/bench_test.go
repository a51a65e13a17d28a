package shard_test

import (
	"testing"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
)

// BenchmarkFleetRun measures one whole fleet run in the BENCH_speed
// bigfleet shape: 1,040 seats riding the office-day profile across
// DefaultFleet(40) with roundrobin placement, a 10 s span, on 2 workers.
// Each iteration pays the plan, every shard's simulation and the fleet
// merge of the shards' echo samples, so the allocation report tracks the
// fleet layer's per-run cost.
func BenchmarkFleetRun(b *testing.B) {
	prof, ok := schedule.Builtin("officeday")
	if !ok {
		b.Fatal("builtin officeday profile missing")
	}
	base := server.DefaultConfig()
	base.Span = 10 * simclock.Second
	cfg := shard.Config{
		Base:      base,
		Machines:  shard.DefaultFleet(40),
		Users:     1040,
		Policy:    shard.PolicyRoundRobin,
		Schedule:  &prof,
		ProbeSpan: 2 * simclock.Second,
		Workers:   2,
		Seed:      1999,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := shard.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
