package main

import (
	"fmt"

	"thinbench/internal/farm"
	"thinbench/internal/proto/protos"
	"thinbench/internal/server"
	"thinbench/internal/simclock"
)

// Contended workload: one shared server per codec, each with
// contendedUsers static users on the nt scheduler, server.DefaultConfig
// otherwise. It is the steady-state echo path — simclock, sched, vm,
// netsim, codec encode and validate, server — with no logins, no
// framebuffer churn and no fleet merge.
const (
	contendedUsers = 14
	contendedSpan  = 300 * simclock.Second
)

type contended struct {
	seed    uint64
	workers int
	sp      *spans
	codecs  []string
	servers []*server.Server
	results []server.Result
}

func newContended(seed uint64, workers int, sp *spans) *contended {
	return &contended{seed: seed, workers: workers, sp: sp, codecs: protos.Names()}
}

func (c *contended) config(codec string) server.Config {
	cfg := server.DefaultConfig()
	cfg.Users = contendedUsers
	cfg.Protocol = codec
	cfg.Scheduler = "nt"
	cfg.Span = contendedSpan
	cfg.Seed = c.seed
	return cfg
}

func (c *contended) Setup() error {
	c.servers = c.servers[:0]
	for _, codec := range c.codecs {
		err := c.sp.do("server.New", -1, func(int) error {
			srv, err := server.New(c.config(codec))
			c.servers = append(c.servers, srv)
			return err
		})
		if err != nil {
			return fmt.Errorf("server.New %s: %w", codec, err)
		}
	}
	return nil
}

func (c *contended) Run() error {
	return c.sp.do("farm.Run", -1, func(parent int) error {
		var err error
		c.results, err = farm.Run(farm.Config{Sessions: len(c.servers), Workers: c.workers},
			func(s *farm.Session) (server.Result, error) {
				var r server.Result
				err := c.sp.do("server.Run", parent, func(int) error {
					var err error
					r, err = c.servers[s.Index].Run()
					return err
				})
				return r, err
			})
		return err
	})
}

func (c *contended) Check() (int, int, error) {
	return checkRecorded("contended", c.seed, c.Digest())
}

// Digest covers every server's simulated statistics, codec by codec.
func (c *contended) Digest() string {
	d := &digest{}
	for i, r := range c.results {
		d.add(c.codecs[i], 0)
		addServerResult(d, r)
	}
	return d.sum()
}

func (c *contended) UserSeconds() float64 {
	return float64(len(c.codecs)*contendedUsers) * contendedSpan.Seconds()
}

func (c *contended) Stats() map[string]float64 {
	return serverStats(c.results)
}

// addServerResult folds one server's simulated statistics into d.
func addServerResult(d *digest, r server.Result) {
	d.add("sim_events", float64(r.SimEvents))
	d.add("cpu_util", r.CPUUtilization)
	d.add("faults", float64(r.FaultsAfterLogin))
	d.add("page_in_ms", r.PageInMs)
	d.add("link_util", r.LinkUtilization)
	d.add("drops", float64(r.LinkDrops))
	d.add("lost_inputs", float64(r.LostInputs))
	d.add("echo_samples", float64(r.EchoSamples))
	d.add("echo_mean_ms", r.EchoMeanMs)
	d.add("echo_p50_ms", r.EchoP50Ms)
	d.add("echo_p95_ms", r.EchoP95Ms)
	d.add("echo_max_ms", r.EchoMaxMs)
	d.add("interactions", float64(r.Interactions))
	d.add("censored", float64(r.Censored))
	d.add("login_max_ms", r.LoginMaxMs)
	d.add("arrivals", float64(r.Arrivals))
	d.add("departures", float64(r.Departures))
}

// serverStats sums (or, for ratios and percentiles, averages or takes the
// maximum of) the simulated statistics of several servers.
func serverStats(rs []server.Result) map[string]float64 {
	st := map[string]float64{}
	n := 0
	for _, r := range rs {
		if r.SimEvents == 0 {
			continue // a fleet shard that hosted nobody
		}
		n++
		st["simclock.events"] += float64(r.SimEvents)
		st["sched.cpu_util"] += r.CPUUtilization
		st["vm.faults"] += float64(r.FaultsAfterLogin)
		st["vm.page_in_ms"] += r.PageInMs
		st["netsim.link_util"] += r.LinkUtilization
		st["netsim.drops"] += float64(r.LinkDrops)
		st["netsim.lost_inputs"] += float64(r.LostInputs)
		st["server.echo_samples"] += float64(r.EchoSamples)
		st["server.echo_p95_ms"] += r.EchoP95Ms
		st["server.censored"] += float64(r.Censored)
		st["server.login_max_ms"] = max(st["server.login_max_ms"], r.LoginMaxMs)
	}
	if n > 0 {
		st["sched.cpu_util"] /= float64(n)
		st["netsim.link_util"] /= float64(n)
		st["server.echo_p95_ms"] /= float64(n)
	}
	return st
}
