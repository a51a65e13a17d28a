package core

import (
	"thinbench/internal/server"
	"thinbench/internal/shard"
	"thinbench/internal/simclock"
)

func init() {
	register(Experiment{
		ID:    "shard1",
		Title: "Fleet sharding: placement policy versus fleet-level p95 latency",
		Paper: "Beyond the paper: it sizes one multi-user machine; a fleet of them serving one population turns sizing into placement. Round-robin, memory-aware (the §5.1.1 division per machine), and latency-aware (probe the paper's own metric) placement over a heterogeneous fleet.",
		Run:   runShard1,
	})
}

// shard1 sweeps total population across the canonical heterogeneous
// three-machine fleet under every placement policy: one series per
// policy, fleet-level p95 versus total users. Each data point is a whole
// fleet — M complete shared servers fanned out across the farm.
func runShard1(cfg Config) (*Result, error) {
	res := &Result{ID: "shard1", Title: "Fleet-level p95 echo latency vs total users, by placement policy"}
	base := server.DefaultConfig()
	base.Span = 6 * simclock.Second
	probeSpan := 2 * simclock.Second
	users := []int{6, 12, 18, 24, 30}
	if cfg.Quick {
		base.Span = 2 * simclock.Second
		probeSpan = simclock.Second
		users = []int{4, 10, 16, 22}
	}
	machines := shard.DefaultFleet(3)

	x := make([]float64, len(users))
	for i, n := range users {
		x[i] = float64(n)
	}
	for _, policy := range shard.Policies() {
		s := Series{
			Label:  policy,
			XLabel: "total fleet users",
			YLabel: "fleet p95 echo latency (ms)",
			X:      x,
		}
		var last shard.FleetResult
		for _, n := range users {
			fr, err := shard.Run(shard.Config{
				Base:      base,
				Machines:  machines,
				Users:     n,
				Policy:    policy,
				ProbeSpan: probeSpan,
				Seed:      cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			s.Y = append(s.Y, fr.EchoP95Ms)
			last = fr
		}
		res.Series = append(res.Series, s)
		res.Notef("%s places %d users as %v (per-shard p95 max %.0f ms)",
			policy, last.Users, last.Placement, last.MaxShardP95Ms)
	}
	res.Notef("fleet: %d machines cycling big (128 MB, 1.5x CPU) / base (%d MB) / weak (48 MB, 0.6x CPU); each point runs every shard as a complete shared server",
		len(machines), base.PhysicalKB/1024)
	res.Notef("fleet p95 comes from merged per-shard latency samples (%gms buckets): percentiles of separate machines cannot be combined after the fact", shard.HistBucketMs)
	return res, nil
}
