package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
)

// Recorded digests of the simulated statistics, by workload and workload
// seed, taken with --record. A speed-only change must leave every one of
// them unchanged; --check compares the current code against them at one
// and two workers.
//
//go:embed digests.json
var digestsJSON []byte

var digests = func() map[string]map[string]string {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		panic(fmt.Sprintf("perfbench: digests.json: %v", err))
	}
	return d
}()

// Seeds. The development seed is the repository's canonical 1999; the
// held-out seed is for confirming a claim made while working on 1999. The
// --seed argument maps onto the pool, so every run has a
// recorded digest to check against.
const (
	devSeed     = 1999
	heldOutSeed = 7177
	poolSize    = 16 // pool seeds are 1..poolSize
)

// recordedSeeds lists every workload seed with a recorded digest.
func recordedSeeds() []uint64 {
	s := []uint64{devSeed, heldOutSeed}
	for i := uint64(1); i <= poolSize; i++ {
		s = append(s, i)
	}
	return s
}

// workloadSeed maps a benchmark seed to a workload seed: a recorded seed
// is used as it is, any other seed picks one from the pool.
func workloadSeed(n uint64) uint64 {
	if n == devSeed || n == heldOutSeed || (n >= 1 && n <= poolSize) {
		return n
	}
	return 1 + n%poolSize
}

// recorded returns the recorded digest of a workload at a seed.
func recorded(workload string, seed uint64) (string, bool) {
	d, ok := digests[workload][strconv.FormatUint(seed, 10)]
	return d, ok
}

// digest hashes named values exactly: floats by their bits.
type digest struct {
	buf []byte
}

func (d *digest) add(name string, v float64) { d.addBits(name, math.Float64bits(v)) }

func (d *digest) addBits(name string, v uint64) {
	d.buf = append(d.buf, name...)
	d.buf = append(d.buf, '=')
	d.buf = strconv.AppendUint(d.buf, v, 16)
	d.buf = append(d.buf, ';')
}

func (d *digest) sum() string {
	h := fnv.New64a()
	h.Write(d.buf)
	return fmt.Sprintf("%016x", h.Sum64())
}

// digested are the workloads whose outputs are checked against recorded
// digests.
var digested = []string{"contended", "fleetday", "stream"}

// checkRecorded compares a digest with the recorded one: one operation,
// failed on a mismatch or when nothing is recorded.
func checkRecorded(workload string, seed uint64, got string) (attempted, failed int, err error) {
	want, ok := recorded(workload, seed)
	if !ok {
		return 1, 1, fmt.Errorf("%s: no recorded digest for seed %d", workload, seed)
	}
	if got != want {
		return 1, 1, fmt.Errorf("%s seed %d: digest %s, recorded %s", workload, seed, got, want)
	}
	return 1, 0, nil
}

// simulate runs one untimed iteration and returns its digest.
func simulate(name string, seed uint64, workers int) (string, error) {
	b, err := newBench(name, seed, workers, nil)
	if err != nil {
		return "", err
	}
	if err := b.Setup(); err != nil {
		return "", err
	}
	if err := b.Run(); err != nil {
		return "", err
	}
	return b.Digest(), nil
}

// recordDigests writes digests.json from the current code, after checking
// that one and two workers agree.
func recordDigests(path string) error {
	out := map[string]map[string]string{}
	for _, name := range digested {
		out[name] = map[string]string{}
		for _, seed := range recordedSeeds() {
			d1, err := simulate(name, seed, 1)
			if err != nil {
				return err
			}
			d2, err := simulate(name, seed, workers)
			if err != nil {
				return err
			}
			if d1 != d2 {
				return fmt.Errorf("%s seed %d: digest %s at 1 worker, %s at %d", name, seed, d1, d2, workers)
			}
			out[name][strconv.FormatUint(seed, 10)] = d1
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", name, seed, d1)
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkDigests runs every recorded seed of every digested workload at one
// and two workers and requires both digests to equal the recorded one.
func checkDigests() error {
	var errs []error
	for _, name := range digested {
		for _, seed := range recordedSeeds() {
			want, ok := recorded(name, seed)
			if !ok {
				errs = append(errs, fmt.Errorf("%s seed %d: no recorded digest", name, seed))
				continue
			}
			for _, w := range []int{1, workers} {
				got, err := simulate(name, seed, w)
				if err != nil {
					errs = append(errs, fmt.Errorf("%s seed %d, %d workers: %w", name, seed, w, err))
				} else if got != want {
					errs = append(errs, fmt.Errorf("%s seed %d, %d workers: digest %s, recorded %s", name, seed, w, got, want))
				}
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d checked at 1 and %d workers\n", name, seed, workers)
		}
	}
	if len(errs) == 0 {
		fmt.Println("perfbench: every recorded digest matches at 1 and 2 workers")
	}
	return errors.Join(errs...)
}
