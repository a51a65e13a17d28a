package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// spans records, in a traced run, one span around every public call the
// benchmark makes into a layer, and per-call durations for the calls that
// happen once per message. Spans stay in memory until the run ends. A nil
// *spans records nothing, so the untraced path pays one nil check per
// call.
type spans struct {
	mu    sync.Mutex
	base  time.Time
	list  []span
	calls map[string][]float64 // per-call microseconds, by call name
}

// span is one recorded call. Parent is the index of the enclosing span in
// the list, or -1.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
}

// do runs f inside a span named name, under parent (-1 for none), with the
// pprof label span=name so profile samples taken inside f tie to it. It
// returns the span's index, the parent of any span f opens.
func (s *spans) do(name string, parent int, f func(idx int) error) error {
	if s == nil {
		return f(-1)
	}
	s.mu.Lock()
	if s.base.IsZero() {
		s.base = time.Now()
	}
	idx := len(s.list)
	s.list = append(s.list, span{Name: name, Parent: parent, StartUs: time.Since(s.base).Microseconds()})
	s.mu.Unlock()
	var err error
	pprof.Do(context.Background(), pprof.Labels("span", name), func(context.Context) { err = f(idx) })
	s.mu.Lock()
	s.list[idx].EndUs = time.Since(s.base).Microseconds()
	s.mu.Unlock()
	return err
}

// durations returns the durations in milliseconds of every span named name.
func (s *spans) durations(name string) []float64 {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []float64
	for _, sp := range s.list {
		if sp.Name == name {
			out = append(out, float64(sp.EndUs-sp.StartUs)/1e3)
		}
	}
	return out
}

// callTimer collects one goroutine's per-call durations without locking;
// merge folds it into the spans when the goroutine is done.
type callTimer struct {
	s     *spans
	calls map[string][]float64
}

func (s *spans) timer() *callTimer {
	if s == nil {
		return nil
	}
	return &callTimer{s: s, calls: map[string][]float64{}}
}

// start returns the time a call began; zero when not tracing.
func (c *callTimer) start() time.Time {
	if c == nil {
		return time.Time{}
	}
	return time.Now()
}

// end records a call named name that began at t0.
func (c *callTimer) end(name string, t0 time.Time) {
	if c == nil {
		return
	}
	c.calls[name] = append(c.calls[name], float64(time.Since(t0).Nanoseconds())/1e3)
}

func (c *callTimer) merge() {
	if c == nil {
		return
	}
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	if c.s.calls == nil {
		c.s.calls = map[string][]float64{}
	}
	for k, v := range c.calls {
		c.s.calls[k] = append(c.s.calls[k], v...)
	}
}

// callQuantile is the q-quantile of the per-call durations named name, in
// microseconds.
func (s *spans) callQuantile(name string, q float64) float64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantile(append([]float64(nil), s.calls[name]...), q)
}

// write saves the spans, the per-call counts and the CPU share of each
// span label as JSON.
func (s *spans) write(path string, lp *layerProfile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	counts := map[string]int{}
	for k, v := range s.calls {
		counts[k] = len(v)
	}
	spanPct := map[string]float64{}
	for k, v := range lp.spanCPU {
		spanPct[k] = 100 * v / lp.cpuTotal
	}
	data, err := json.Marshal(struct {
		Spans      []span             `json:"spans"`
		Calls      map[string]int     `json:"calls"`
		SpanCPUPct map[string]float64 `json:"span_cpu_pct"`
	}{s.list, counts, spanPct})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
