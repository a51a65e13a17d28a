package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// Layers are the internal/ packages; the proto/* codecs fold into proto.
// A profile sample or an allocation is charged to the innermost frame of
// one of these packages on its stack, so zeroing or allocating done on a
// layer's behalf counts to that layer. Other internal packages go to
// "other"; a stack with no internal frame at all (GC workers, the runtime,
// the benchmark's own code) goes to "gc_bg".
var layers = []string{
	"simclock", "sched", "vm", "netsim", "proto", "display", "bitmapcache",
	"session", "workload", "server", "schedule", "shard", "farm", "metrics",
	"other", "gc_bg",
}

const internalPrefix = "thinbench/internal/"

// layerOf maps a function name to its layer, or "" when the function is
// not in an internal package.
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, internalPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers[:len(layers)-2] {
		if l == rest {
			return l
		}
	}
	return "other"
}

// tracedMemRate is the allocation sampling rate of the traced phase, one
// sample per this many bytes (the runtime default is 512 KiB).
const tracedMemRate = 16 << 10

// layerProfile is the traced phase's cost by layer.
type layerProfile struct {
	cpu      map[string]float64 // CPU nanoseconds by layer
	cpuTotal float64
	spanCPU  map[string]float64 // CPU nanoseconds by span label
	alloc    map[string]float64 // bytes allocated by layer, all iterations
	iters    int
}

// profile runs traced iterations for budget (at least three) under a CPU
// profile and a lowered allocation sampling rate, and returns the cost by
// layer and each iteration's Run time. Check runs under the label
// phase=check and is left out of the CPU shares.
func profile(b bench, budget time.Duration, t *tally) (*layerProfile, []float64, error) {
	runtime.GC()
	runtime.GC()
	before := memRecords()
	saved := runtime.MemProfileRate
	runtime.MemProfileRate = tracedMemRate
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, err
	}
	var walls []float64
	start := time.Now()
	for n := 0; n < 3 || time.Since(start) < budget; n++ {
		if err := b.Setup(); err != nil {
			t.fail(err)
			continue
		}
		t0 := time.Now()
		if err := b.Run(); err != nil {
			t.fail(err)
			continue
		}
		walls = append(walls, time.Since(t0).Seconds())
		pprof.Do(context.Background(), pprof.Labels("phase", "check"), func(context.Context) { t.add(b) })
	}
	pprof.StopCPUProfile()
	runtime.MemProfileRate = saved
	runtime.GC()
	runtime.GC()
	after := memRecords()

	lp := &layerProfile{alloc: map[string]float64{}, iters: len(walls)}
	if err := lp.readCPU(buf.Bytes()); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	for key, r := range after {
		bytes := r.AllocBytes - before[key].AllocBytes
		objs := r.AllocObjects - before[key].AllocObjects
		if bytes <= 0 || objs <= 0 {
			continue
		}
		lp.alloc[stackLayer(r.Stack())] += scaleSample(objs, bytes, tracedMemRate)
	}
	return lp, walls, nil
}

// memRecords snapshots the allocation profile, keyed by stack.
func memRecords() map[string]runtime.MemProfileRecord {
	var recs []runtime.MemProfileRecord
	n, ok := runtime.MemProfile(nil, true)
	for !ok {
		recs = make([]runtime.MemProfileRecord, n+64)
		n, ok = runtime.MemProfile(recs, true)
	}
	out := make(map[string]runtime.MemProfileRecord, n)
	for _, r := range recs[:n] {
		out[fmt.Sprint(r.Stack())] = r
	}
	return out
}

// stackLayer charges a stack of return PCs to its innermost layer.
func stackLayer(pcs []uintptr) string {
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		if l := layerOf(f.Function); l != "" {
			return l
		}
		if !more {
			return "gc_bg"
		}
	}
}

// scaleSample undoes allocation sampling the way pprof does: a record of
// objs sampled objects totalling bytes stands for bytes/(1-e^(-avg/rate)).
func scaleSample(objs, bytes int64, rate int) float64 {
	avg := float64(bytes) / float64(objs)
	return float64(bytes) / (1 - math.Exp(-avg/float64(rate)))
}

// readCPU decodes a gzipped pprof CPU profile and charges each sample's
// CPU time to the innermost layer on its stack.
func (lp *layerProfile) readCPU(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	lp.cpu = map[string]float64{}
	lp.spanCPU = map[string]float64{}
	for _, s := range p.samples {
		if len(s.values) == 0 || p.str(s.labels["phase"]) == "check" {
			continue
		}
		ns := float64(s.values[len(s.values)-1])
		layer := "gc_bg"
	stack:
		for _, id := range s.locations {
			for _, fn := range p.locations[id] {
				if l := layerOf(p.str(p.functions[fn])); l != "" {
					layer = l
					break stack
				}
			}
		}
		lp.cpu[layer] += ns
		lp.cpuTotal += ns
		if span, ok := s.labels["span"]; ok {
			lp.spanCPU[p.str(span)] += ns
		}
	}
	if lp.cpuTotal == 0 {
		return errors.New("no samples")
	}
	return nil
}

// pprofProfile is the part of a pprof profile.proto the attribution
// reads: samples with their stacks, values and string labels; locations
// as the function ids of their (inlined) lines, innermost first; function
// names; and the string table.
type pprofProfile struct {
	samples   []pprofSample
	locations map[uint64][]uint64
	functions map[uint64]int64
	strings   []string
}

type pprofSample struct {
	locations []uint64
	values    []int64
	labels    map[string]int64 // key -> string-table index of the value
}

func (p *pprofProfile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6

	sampleLocation = 1
	sampleValue    = 2
	sampleLabel    = 3

	labelKey = 1
	labelStr = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	fnID   = 1
	fnName = 2
)

func parseProfile(b []byte) (*pprofProfile, error) {
	p := &pprofProfile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	type rawLabel struct{ key, str int64 }
	var labels [][]rawLabel
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case profSample:
			var s pprofSample
			var ls []rawLabel
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case sampleLocation:
					return packed(v, data, func(x uint64) { s.locations = append(s.locations, x) })
				case sampleValue:
					return packed(v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				case sampleLabel:
					var l rawLabel
					err := eachField(data, func(num int, v uint64, _ []byte) error {
						switch num {
						case labelKey:
							l.key = int64(v)
						case labelStr:
							l.str = int64(v)
						}
						return nil
					})
					ls = append(ls, l)
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			labels = append(labels, ls)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(data, func(num int, v uint64, data []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return eachField(data, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case fnID:
					id = v
				case fnName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Label keys are string-table indices too; resolve them once the
	// table is complete.
	for i, ls := range labels {
		if len(ls) == 0 {
			continue
		}
		p.samples[i].labels = map[string]int64{}
		for _, l := range ls {
			p.samples[i].labels[p.str(l.key)] = l.str
		}
	}
	return p, nil
}

var errProto = errors.New("malformed profile")

// eachField walks the fields of one protobuf message, calling f with each
// field's number and either its varint value or its length-delimited
// bytes (data is nil for a varint).
func eachField(b []byte, f func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := f(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// packed reads a repeated varint field in either encoding: one value, or
// a packed run.
func packed(v uint64, data []byte, f func(uint64)) error {
	if data == nil {
		f(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		f(x)
		data = data[n:]
	}
	return nil
}
