package main

import (
	"fmt"

	"thinbench/internal/schedule"
	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
)

// Fleetday workload: the BENCH_speed bigfleet shape — fleetUsers seats on
// shard.DefaultFleet(fleetMachines) riding the OfficeDay profile, with
// roundrobin placement. Login churn, the fixed cost of each session and
// the fleet merge dominate it. The span stays short because each shard
// keeps one span-wide histogram per second of span, so heap grows with
// the square of the span; runs get longer by repeating, not by a longer
// span.
const (
	fleetUsers    = 1040
	fleetMachines = 40
	fleetSpan     = 10 * simclock.Second
)

type fleetday struct {
	seed    uint64
	workers int
	sp      *spans
	prof    schedule.Profile
	cfg     shard.Config

	sessions  int // sessions in the compiled plan
	placement []int
	result    shard.FleetResult
}

func newFleetday(seed uint64, workers int, sp *spans) (*fleetday, error) {
	prof, ok := schedule.Builtin("officeday")
	if !ok {
		return nil, fmt.Errorf("fleetday: builtin profile officeday missing")
	}
	base := server.DefaultConfig()
	base.Span = fleetSpan
	f := &fleetday{seed: seed, workers: workers, sp: sp, prof: prof}
	f.cfg = shard.Config{
		Base:      base,
		Machines:  shard.DefaultFleet(fleetMachines),
		Users:     fleetUsers,
		Policy:    shard.PolicyRoundRobin,
		Schedule:  &f.prof,
		ProbeSpan: 2 * simclock.Second,
		Workers:   workers,
		Seed:      seed,
	}
	return f, nil
}

// Setup compiles the day's plan and places the time-zero population, the
// public set-up calls of a fleet. shard.Run repeats this work internally;
// that share shows in the traced run.
func (f *fleetday) Setup() error {
	err := f.sp.do("schedule.Compile", -1, func(int) error {
		if _, err := schedule.NewCompiled(f.prof); err != nil {
			return err
		}
		plan, err := schedule.Compile(f.prof, f.cfg.Users, fleetSpan, f.seed)
		f.sessions = len(plan)
		return err
	})
	if err != nil {
		return fmt.Errorf("schedule: %w", err)
	}
	return f.sp.do("shard.Place", -1, func(int) error {
		var err error
		f.placement, err = shard.Place(f.cfg)
		return err
	})
}

func (f *fleetday) Run() error {
	return f.sp.do("shard.Run", -1, func(int) error {
		var err error
		f.result, err = shard.Run(f.cfg)
		return err
	})
}

func (f *fleetday) Check() (int, int, error) {
	return checkRecorded("fleetday", f.seed, f.Digest())
}

// Digest covers the fleet-level statistics, the set-up outputs and every
// shard's simulated statistics.
func (f *fleetday) Digest() string {
	r := f.result
	d := &digest{}
	d.add("plan_sessions", float64(f.sessions))
	for j, n := range f.placement {
		d.add(fmt.Sprint("place", j), float64(n))
	}
	d.add("sim_events", float64(r.SimEvents))
	d.add("arrivals", float64(r.Arrivals))
	d.add("departures", float64(r.Departures))
	d.add("echo_p50_ms", r.EchoP50Ms)
	d.add("echo_p95_ms", r.EchoP95Ms)
	d.add("max_shard_p95_ms", r.MaxShardP95Ms)
	d.add("login_max_ms", r.LoginMaxMs)
	d.add("interactions", float64(r.Interactions))
	d.add("censored", float64(r.Censored))
	d.add("lost_inputs", float64(r.LostInputs))
	d.add("clamped", float64(r.Clamped))
	for _, s := range r.Shards {
		d.add(fmt.Sprint("shard", s.Shard), 0)
		addServerResult(d, s.Result)
	}
	return d.sum()
}

func (f *fleetday) UserSeconds() float64 {
	return float64(fleetUsers) * fleetSpan.Seconds()
}

func (f *fleetday) Stats() map[string]float64 {
	rs := make([]server.Result, len(f.result.Shards))
	for i, s := range f.result.Shards {
		rs[i] = s.Result
	}
	st := serverStats(rs)
	st["simclock.events"] = float64(f.result.SimEvents)
	st["server.echo_p95_ms"] = f.result.EchoP95Ms
	st["server.login_max_ms"] = f.result.LoginMaxMs
	st["shard.arrivals"] = float64(f.result.Arrivals)
	st["shard.clamped"] = float64(f.result.Clamped)
	return st
}
