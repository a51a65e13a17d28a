package thinbench_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"thinbench/internal/benchdoc"
	"thinbench/internal/shard"
	"thinbench/internal/speed"
)

// baseline registers one checked-in BENCH document with the shared golden
// harness: how to regenerate it, which fields are machine-dependent
// (ignored), which are ratcheted rather than diffed exactly, and which
// ordinal claims the document must uphold. A future PR adding a seventh
// baseline appends one entry here.
type baseline struct {
	path string
	// build regenerates the document on the given number of farm
	// workers, with the exact parameters its command field records.
	build func(workers int) (any, error)
	// volatile names leaf fields that vary between machines or runs
	// (wall-clock rates, raw allocation counts): present in the baseline
	// for the record, never diffed.
	volatile []string
	// ratchet names numeric leaf fields gated against regression instead
	// of diffed exactly: the regenerated value may be at most ratchetTol
	// above the baseline (lower always passes — that is an improvement to
	// check in).
	ratchet []string
	// serial marks a baseline whose regeneration must not share the
	// process with concurrent tests (allocation counting reads the
	// process-global MemStats).
	serial bool
	// gate, when set, asserts the paper's ordinal claims over the
	// regenerated document (one policy beats another, overload shows as
	// an excursion, a fleet recovers). The golden diff pins every number;
	// the gate says which orderings a deliberate re-baseline must keep.
	gate func(t *testing.T, doc any)
	// invariant projects the document onto the part that must not change
	// with the worker count; nil compares the whole document.
	invariant func(doc any) any
}

// ratchetTol is the allowed relative regression on ratcheted fields: wide
// enough to absorb the few-alloc runtime jitter that survives the farm's
// serial fast path (GC-timing-dependent allocations, worth well under a
// tenth of a percent), tight enough that a real allocation regression
// fails. Tightened from 2% once the farm worker pool and serial path
// stabilized the raw counts, and again to 0.5% after round 3 removed the
// per-event closures whose GC-timing jitter needed the wider band.
const ratchetTol = 0.005

func baselines() []baseline {
	volatileSpeed := benchdoc.SpeedVolatileFields()
	// Raw allocs ratchet alongside the per-event ratio now that the farm's
	// pooled workers and serial fast path keep the counts stable run to
	// run, and allocated bytes per event ratchet beside them (20 runs
	// agreed within 0.04%). The race detector changes allocation counts
	// wholesale; under -race only the event counts stay comparable.
	ratchetSpeed := []string{"allocs_per_event", "allocs", "bytes_per_event"}
	if speed.RaceEnabled {
		volatileSpeed = append(volatileSpeed, "allocs", "allocs_per_event", "bytes_per_event")
		ratchetSpeed = nil
	}
	return []baseline{
		{
			path: "BENCH_contention.json",
			build: func(workers int) (any, error) {
				return benchdoc.Contention("1..16", "rdp,x,lbx", "rr,nt", false, 1999, workers)
			},
		},
		{
			path: "BENCH_shard.json",
			build: func(workers int) (any, error) {
				return benchdoc.Shard("6..30", "roundrobin,memaware,lataware", 3, false, 1999, workers)
			},
			gate: shardGate,
		},
		{
			path: "BENCH_churn.json",
			build: func(workers int) (any, error) {
				return benchdoc.Churn("22", "roundrobin,memaware,lataware", "0,0.15,0.3", 3, 2, 4, false, 1999, workers)
			},
			gate: churnGate,
		},
		{
			path: "BENCH_schedule.json",
			build: func(workers int) (any, error) {
				return benchdoc.Schedule("15", "officeday,flat", "roundrobin,lataware", 3, 2, 2, false, 1999, workers)
			},
			gate: scheduleGate,
		},
		{
			path: "BENCH_control.json",
			build: func(workers int) (any, error) {
				return benchdoc.Control("officeday,shiftchange", 2, 0, false, 1999, workers)
			},
			gate: controlGate,
		},
		{
			path: "BENCH_speed.json",
			build: func(workers int) (any, error) {
				return benchdoc.Speed(false, 1999, workers, "")
			},
			volatile: volatileSpeed,
			ratchet:  ratchetSpeed,
			serial:   true,
			// The command records the worker count and the allocation
			// counts depend on it; only the simulated events must not.
			invariant: func(doc any) any {
				var events []uint64
				for _, w := range doc.(benchdoc.SpeedDoc).Workloads {
					events = append(events, w.SimEvents)
				}
				return events
			},
		},
	}
}

// never maps the "never recovered within the run" sentinel (a negative
// RecoveryMs) to +Inf, so a fleet that never recovers orders after every
// fleet that does.
func never(recoveryMs float64) float64 {
	if recoveryMs < 0 {
		return math.Inf(1)
	}
	return recoveryMs
}

// find returns the first element of items that match selects, failing
// the test when the document has none.
func find[T any](t *testing.T, items []T, what string, match func(T) bool) T {
	t.Helper()
	for _, it := range items {
		if match(it) {
			return it
		}
	}
	t.Fatalf("document has no %s", what)
	var zero T
	return zero
}

// shardGate: latency-aware placement beats round-robin on the
// heterogeneous fleet — its fleet p95 is no worse at every population.
func shardGate(t *testing.T, doc any) {
	d := doc.(benchdoc.ShardDoc)
	points := func(policy string) []shard.FleetResult {
		return find(t, d.Policies, policy+" series", func(ps benchdoc.PolicySeries) bool { return ps.Policy == policy }).Points
	}
	lat, rr := points("lataware"), points("roundrobin")
	if len(lat) != len(d.Users) || len(rr) != len(d.Users) {
		t.Fatalf("%d populations, but lataware has %d points and roundrobin %d", len(d.Users), len(lat), len(rr))
	}
	for i, n := range d.Users {
		if lat[i].EchoP95Ms > rr[i].EchoP95Ms {
			t.Errorf("%d users: lataware p95 %v > roundrobin %v", n, lat[i].EchoP95Ms, rr[i].EchoP95Ms)
		}
	}
}

// churnGate: churn costs latency, a machine kill shows as an excursion,
// and latency-aware placement recovers from it no slower than
// round-robin.
func churnGate(t *testing.T, doc any) {
	d := doc.(benchdoc.ChurnDoc)
	for _, ps := range d.Policies {
		static := ps.Points[0].EchoP95Ms
		for i, pt := range ps.Points {
			if pt.EchoP95Ms+0.01 < static {
				t.Errorf("%s at %v/s: churned p95 %v below static %v", ps.Policy, d.ChurnRates[i], pt.EchoP95Ms, static)
			}
		}
	}
	fail := func(policy string) shard.FleetResult {
		return find(t, d.Failover, policy+" failover", func(f benchdoc.PolicyFail) bool { return f.Policy == policy }).Result
	}
	lat, rr := fail("lataware"), fail("roundrobin")
	if !(lat.PeakKillP95Ms > lat.PreKillP95Ms) {
		t.Errorf("lataware kill shows no excursion: peak %v, pre-kill %v", lat.PeakKillP95Ms, lat.PreKillP95Ms)
	}
	if lat.RecoveryMs < 0 {
		t.Errorf("lataware fleet never recovered")
	}
	if lat.RecoveryMs > never(rr.RecoveryMs) {
		t.Errorf("lataware recovery %vms slower than roundrobin %vms", lat.RecoveryMs, never(rr.RecoveryMs))
	}
}

// scheduleGate: the login storm's peak slice exceeds the flat profile's
// whole-run p95, and a kill in the middle of the storm recovers no faster
// than the same kill under flat load.
func scheduleGate(t *testing.T, doc any) {
	d := doc.(benchdoc.ScheduleDoc)
	run := func(profile, policy string) shard.FleetResult {
		pr := find(t, d.Profiles, profile+" profile", func(pr benchdoc.ProfileRuns) bool { return pr.Profile == profile })
		return find(t, pr.Policies, profile+"/"+policy+" run", func(pp benchdoc.PolicyResult) bool { return pp.Policy == policy }).Result
	}
	for _, policy := range []string{"roundrobin", "lataware"} {
		storm, flat := run("officeday", policy), run("flat", policy)
		if len(storm.P95TimelineMs) == 0 {
			t.Fatalf("%s: officeday run has no p95 timeline", policy)
		}
		if peak := slices.Max(storm.P95TimelineMs); peak < flat.EchoP95Ms {
			t.Errorf("%s: storm peak %v below flat whole-run p95 %v", policy, peak, flat.EchoP95Ms)
		}
	}
	fail := func(profile, policy string) shard.FleetResult {
		return find(t, d.Failover, profile+"/"+policy+" failover", func(f benchdoc.ProfileFail) bool {
			return f.Profile == profile && f.Policy == policy
		}).Result
	}
	storm, flat := fail("officeday", "roundrobin"), fail("flat", "roundrobin")
	if flat.RecoveryMs < 0 {
		t.Errorf("flat-load kill never recovered")
	}
	if never(storm.RecoveryMs) < flat.RecoveryMs {
		t.Errorf("mid-storm kill recovered in %vms, faster than flat load's %vms", storm.RecoveryMs, flat.RecoveryMs)
	}
}

// controlGate: admission control protects the admitted users and tracks
// the offline sizing oracle, and the uncontrolled run carries no control
// fields.
func controlGate(t *testing.T, doc any) {
	d := doc.(benchdoc.ControlDoc)
	for _, cp := range d.Profiles {
		raw, err := json.Marshal(cp.Open)
		if err != nil {
			t.Fatal(err)
		}
		var open map[string]json.RawMessage
		if err := json.Unmarshal(raw, &open); err != nil {
			t.Fatal(err)
		}
		for _, key := range []string{"peak_users", "deferred_logins"} {
			if _, ok := open[key]; ok {
				t.Errorf("%s: uncontrolled run leaked %s into the baseline", cp.Profile, key)
			}
		}
		gated := cp.Admission
		if gated.EchoP95Ms > cp.Open.EchoP95Ms {
			t.Errorf("%s: gated p95 %v above open %v", cp.Profile, gated.EchoP95Ms, cp.Open.EchoP95Ms)
		}
		if held := gated.DeferredLogins + gated.RejectedLogins; held <= 0 {
			t.Errorf("%s: 1.5x the oracle's seats arrived and the gate held nobody", cp.Profile)
		}
		if ratio := float64(gated.PeakUsers) / float64(cp.FleetSeats); ratio < 1/1.5 || ratio > 1.5 {
			t.Errorf("%s: gated peak %d is %.2fx the oracle's %d seats", cp.Profile, gated.PeakUsers, ratio, cp.FleetSeats)
		}
	}
}

// TestBenchBaselinesBitIdentical regenerates every checked-in BENCH
// document in-process, with the exact parameters its command line
// records, golden-diffs the result against the file, and runs the
// document's gate over it. Every field present in the checked-in baseline
// must be byte-for-byte unchanged (volatile fields excepted, ratcheted
// fields gated) — the proof that a refactor (like the calendar-queue
// event scheduler) preserved every number it inherited.
//
// The helper tolerates fields ADDED by newer code, so a future PR that
// extends a result type reuses this test unchanged: it regenerates the
// baselines, checks them in, and the old fields must still match.
func TestBenchBaselinesBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("bench regeneration in -short mode")
	}
	for _, b := range baselines() {
		t.Run(b.path, func(t *testing.T) {
			if !b.serial {
				// Serial entries run to completion inline, before any
				// parallel sibling starts, keeping the process quiet for
				// their allocation counting.
				t.Parallel()
			}
			doc, err := b.build(1)
			if err != nil {
				t.Fatal(err)
			}
			assertGoldenSubset(t, b, doc)
			if b.gate != nil {
				b.gate(t, doc)
			}
		})
	}
}

// TestBenchWorkerInvariant builds every document on one farm worker and
// on eight and requires identical JSON: results may not depend on how
// the sessions were spread across goroutines. The speed document compares
// its event counts only; as a serial entry it runs inline, the eight-
// worker build after the one-worker allocation count.
func TestBenchWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("bench regeneration in -short mode")
	}
	for _, b := range baselines() {
		t.Run(b.path, func(t *testing.T) {
			if !b.serial {
				t.Parallel()
			}
			var got [2][]byte
			for i, workers := range []int{1, 8} {
				doc, err := b.build(workers)
				if err != nil {
					t.Fatal(err)
				}
				var v any = doc
				if b.invariant != nil {
					v = b.invariant(doc)
				}
				if got[i], err = json.Marshal(v); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(got[0], got[1]) {
				t.Fatalf("%s differs between 1 and 8 workers:\n1: %.400s\n8: %.400s", b.path, got[0], got[1])
			}
		})
	}
}

// assertGoldenSubset checks that every field of the checked-in JSON
// baseline appears, with an identical value, in the regenerated document.
// Numbers compare by their JSON token text, so a drift of one ulp fails.
// Fields present only in the regenerated document are allowed (they are
// what a future PR checks in); fields missing from it are not.
func assertGoldenSubset(t *testing.T, b baseline, doc any) {
	t.Helper()
	raw, err := os.ReadFile(b.path)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := decodeNumbers(raw, &want); err != nil {
		t.Fatalf("%s: %v", b.path, err)
	}
	if err := decodeNumbers(fresh, &got); err != nil {
		t.Fatal(err)
	}
	d := differ{volatile: toSet(b.volatile), ratchet: toSet(b.ratchet)}
	if diff := d.subsetDiff("", want, got); diff != "" {
		t.Fatalf("%s drifted from the checked-in baseline:\n%s", b.path, diff)
	}
}

func toSet(fields []string) map[string]bool {
	if len(fields) == 0 {
		return nil
	}
	m := make(map[string]bool, len(fields))
	for _, f := range fields {
		m[f] = true
	}
	return m
}

func decodeNumbers(data []byte, v *any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	return dec.Decode(v)
}

// differ walks baseline and regenerated trees in lockstep. Field-name
// classification applies at any depth, so "wall_ms" is volatile wherever a
// workload entry nests.
type differ struct {
	volatile map[string]bool
	ratchet  map[string]bool
}

// subsetDiff reports the first place the baseline's fields are missing or
// changed in the regenerated tree; empty means the baseline is a subset.
func (d differ) subsetDiff(at string, want, got any) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return fmt.Sprintf("%s: baseline has an object, regenerated has %T", at, got)
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				return fmt.Sprintf("%s.%s: present in baseline, missing from regenerated", at, k)
			}
			if d.volatile[k] {
				continue
			}
			if d.ratchet[k] {
				if diff := ratchetDiff(at+"."+k, wv, gv); diff != "" {
					return diff
				}
				continue
			}
			if diff := d.subsetDiff(at+"."+k, wv, gv); diff != "" {
				return diff
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok {
			return fmt.Sprintf("%s: baseline has an array, regenerated has %T", at, got)
		}
		if len(w) != len(g) {
			return fmt.Sprintf("%s: baseline array has %d elements, regenerated %d", at, len(w), len(g))
		}
		for i := range w {
			if diff := d.subsetDiff(fmt.Sprintf("%s[%d]", at, i), w[i], g[i]); diff != "" {
				return diff
			}
		}
	case json.Number:
		g, ok := got.(json.Number)
		if !ok || w.String() != g.String() {
			return fmt.Sprintf("%s: baseline %v, regenerated %v", at, want, got)
		}
	default:
		if want != got {
			return fmt.Sprintf("%s: baseline %v, regenerated %v", at, want, got)
		}
	}
	return ""
}

// ratchetDiff gates a numeric field against regression: the regenerated
// value may exceed the baseline by at most ratchetTol (relatively). A
// lower value passes — improvements are checked in by regenerating the
// baseline.
func ratchetDiff(at string, want, got any) string {
	wn, wok := want.(json.Number)
	gn, gok := got.(json.Number)
	if !wok || !gok {
		return fmt.Sprintf("%s: ratchet field is not numeric (baseline %T, regenerated %T)", at, want, got)
	}
	wf, err1 := wn.Float64()
	gf, err2 := gn.Float64()
	if err1 != nil || err2 != nil {
		return fmt.Sprintf("%s: ratchet field parse (%v, %v)", at, err1, err2)
	}
	if gf > wf*(1+ratchetTol) {
		return fmt.Sprintf("%s: regression past the ratchet: baseline %v, regenerated %v (tolerance %g%%)",
			at, wn, gn, ratchetTol*100)
	}
	return ""
}
