// Command perfbench is the repository benchmark: it times the simulator and
// the streaming path end to end, checks every output against a reference,
// and, in a traced run, splits the cost by layer (see README.md).
//
//	perfbench --workload contended --seed 3 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones; with --trace 1 they are the per-layer ones.
//
// Two maintenance modes use the recorded digests in digests.json:
//
//	perfbench --check    every recorded seed at 1 and 2 workers against the table
//	perfbench --record   rewrite the table from the current code
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// workers is the benchmark's concurrency: the container it was sized on
// has two CPUs, and every workload runs on at most two workers.
const workers = 2

// bench is one workload instance at a fixed seed and worker count. One
// iteration is Setup (timed as setup_s) followed by Run (timed as wall_s)
// followed by Check, which never runs inside a timed window.
type bench interface {
	// Setup makes the public set-up calls the iteration's Run consumes.
	Setup() error
	// Run is the timed phase.
	Run() error
	// Check verifies the last Run's outputs against their reference and
	// reports how many operations it checked and how many failed.
	Check() (attempted, failed int, err error)
	// Digest hashes the last Run's outputs exactly; it equals the digest
	// recorded for the workload and seed, at any worker count.
	Digest() string
	// UserSeconds is the simulated user time one Run covers.
	UserSeconds() float64
	// Stats are the per-layer counts of the last Run that are not timings:
	// simulated statistics and payload bytes.
	Stats() map[string]float64
}

// newBench builds the named workload's bench; spans may be nil.
func newBench(name string, seed uint64, workers int, sp *spans) (bench, error) {
	switch name {
	case "contended":
		return newContended(seed, workers, sp), nil
	case "fleetday":
		return newFleetday(seed, workers, sp)
	case "stream":
		return newStream(seed, workers, sp), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want contended, fleetday or stream)", name)
}

// sample is one iteration's measurements.
type sample struct {
	setup, wall, cpu float64 // seconds
	allocMB, peakMB  float64
}

// tally accumulates the operation counts behind correct, attempted and
// failed.
type tally struct {
	attempted, failed int
}

// fail counts an iteration that returned an error as one failed
// operation.
func (t *tally) fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench: error:", err)
	t.attempted++
	t.failed++
}

func (t *tally) add(b bench) {
	a, f, err := b.Check()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: check:", err)
	}
	t.attempted += a
	t.failed += f
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: contended, fleetday or stream")
		seed    = flag.Uint64("seed", 1999, "benchmark seed; it selects the workload seed (see README.md)")
		seconds = flag.Float64("seconds", 20, "measured time per run")
		trace   = flag.Int("trace", 0, "1 adds a profiled phase and prints the per-layer metrics")
		check   = flag.Bool("check", false, "check every recorded seed at 1 and 2 workers and exit")
		record  = flag.Bool("record", false, "rewrite digests.json from the current code and exit")
	)
	flag.Parse()
	if _, err := os.Stat("go.mod"); err != nil {
		fatalf("run from the root of the repository: %v", err)
	}
	switch {
	case *record:
		if err := recordDigests(filepath.Join("perfbench", "digests.json")); err != nil {
			fatalf("record: %v", err)
		}
		return
	case *check:
		if err := checkDigests(); err != nil {
			fatalf("check: %v", err)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	ws := workloadSeed(*seed)
	fmt.Fprintf(os.Stderr, "perfbench: workload %s, seed %d -> workload seed %d, %d workers\n", *name, *seed, ws, workers)
	out, err := measure(*name, ws, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// measure runs one workload: a warm-up iteration, timed iterations until
// the budget is spent, and one more iteration at a single worker whose
// outputs must equal the two-worker ones. A traced run gives half of the
// budget to untraced iterations (the overhead baseline) and half to
// profiled ones. An iteration that returns an error counts as a failed
// operation; its timings are dropped and it is not retried.
func measure(name string, seed uint64, budget time.Duration, traced bool) (result, error) {
	b, err := newBench(name, seed, workers, nil)
	if err != nil {
		return result{}, err
	}
	var t tally
	// Warm-up: lazy initialisation and first-touch page faults stay out of
	// the timed iterations.
	t.iterate(b)

	untimed := budget
	if traced {
		untimed = budget / 2
	}
	samples := loop(b, untimed, &t)

	sp := &spans{}
	var prof *layerProfile
	var tracedWall []float64
	if traced {
		tb, err := newBench(name, seed, workers, sp)
		if err != nil {
			return result{}, err
		}
		if prof, tracedWall, err = profile(tb, budget-untimed, &t); err != nil {
			return result{}, err
		}
		printProfile(prof)
	}

	// The core invariant, checked from outside: one worker gives the same
	// outputs as two.
	one, err := newBench(name, seed, 1, nil)
	if err != nil {
		return result{}, err
	}
	if t.iterate(one) && one.Digest() != b.Digest() {
		fmt.Fprintln(os.Stderr, "perfbench: outputs differ between 1 and 2 workers")
		t.attempted++
		t.failed++
	}

	out := result{Correct: t.failed == 0 && len(samples) > 0, Attempted: t.attempted, Failed: t.failed}
	e2e := endToEnd(samples, b.UserSeconds())
	if !traced {
		out.Metrics = e2e
	} else {
		out.Metrics = perLayer(e2e, b.Stats(), prof, sp, tracedWall, t)
		if err := sp.write(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("spans-%s-%d.json", name, seed)), prof); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
		}
	}
	if !out.Correct {
		// A failed run's timings are dropped.
		for k, m := range out.Metrics {
			out.Metrics[k] = metric{Value: 0, Unit: m.Unit}
		}
	}
	return out, nil
}

// iterate runs and checks one untimed iteration, and reports whether it
// ran without error.
func (t *tally) iterate(b bench) bool {
	err := b.Setup()
	if err == nil {
		err = b.Run()
	}
	if err != nil {
		t.fail(err)
		return false
	}
	t.add(b)
	return true
}

// loop runs timed iterations until budget is spent, and at least five.
func loop(b bench, budget time.Duration, t *tally) []sample {
	var out []sample
	start := time.Now()
	for n := 0; n < 5 || time.Since(start) < budget; n++ {
		s, err := timed(b)
		if err != nil {
			t.fail(err)
			continue
		}
		t.add(b)
		out = append(out, s)
	}
	return out
}

// timed runs one iteration and measures it. The heap is not collected
// first: each iteration starts in the steady state the previous one left,
// as the traced iterations do.
func timed(b bench) (sample, error) {
	t0 := time.Now()
	if err := b.Setup(); err != nil {
		return sample{}, err
	}
	setup := time.Since(t0)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	peak := startPeakSampler()
	c0 := cpuTime()
	t1 := time.Now()
	err := b.Run()
	wall := time.Since(t1)
	c1 := cpuTime()
	peakBytes := peak.stop()
	if err != nil {
		return sample{}, err
	}
	runtime.ReadMemStats(&m1)
	return sample{
		setup:   setup.Seconds(),
		wall:    wall.Seconds(),
		cpu:     c1 - c0,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		peakMB:  float64(peakBytes) / 1e6,
	}, nil
}

// cpuTime is the process's user+system CPU seconds so far.
func cpuTime() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// peakSampler polls the heap in use every half millisecond and keeps the
// highest reading.
type peakSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{done: make(chan struct{})}
	s := []metrics.Sample{{Name: heapMetric}}
	p.peak = readHeap(s)
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for {
			select {
			case <-p.done:
				return
			case <-tick.C:
				if h := readHeap(s); h > p.peak {
					p.peak = h
				}
			}
		}
	}()
	return p
}

func (p *peakSampler) stop() uint64 {
	close(p.done)
	p.wg.Wait()
	if h := readHeap([]metrics.Sample{{Name: heapMetric}}); h > p.peak {
		p.peak = h
	}
	return p.peak
}

// endToEnd reduces the timed iterations to the end-to-end metrics, each the
// median over iterations.
func endToEnd(ss []sample, userSeconds float64) map[string]metric {
	col := func(f func(sample) float64) []float64 {
		v := make([]float64, len(ss))
		for i, s := range ss {
			v[i] = f(s)
		}
		return v
	}
	wall := median(col(func(s sample) float64 { return s.wall }))
	return map[string]metric{
		"wall_s":       {wall, "s"},
		"setup_s":      {median(col(func(s sample) float64 { return s.setup })), "s"},
		"user_s_per_s": {median(col(func(s sample) float64 { return userSeconds / s.wall })), "s/s"},
		"cpu_s":        {median(col(func(s sample) float64 { return s.cpu })), "s"},
		"peak_heap_mb": {median(col(func(s sample) float64 { return s.peakMB })), "MB"},
		"alloc_mb":     {median(col(func(s sample) float64 { return s.allocMB })), "MB"},
	}
}

// median of v; v is reordered.
func median(v []float64) float64 {
	return quantile(v, 0.5)
}

// quantile is the q-quantile of v by linear interpolation; v is reordered.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	pos := q * float64(len(v)-1)
	i := int(pos)
	if i+1 >= len(v) {
		return v[len(v)-1]
	}
	return v[i] + (pos-float64(i))*(v[i+1]-v[i])
}
