package main

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/protos"
	"thinbench/internal/simclock"
	"thinbench/internal/workload"
)

// Stream workload: thinserve's path rebuilt from public calls. For each
// codec in turn, two sessions run at once over two loopback TCP
// connections: the server encodes a trace (UpdateTape, or Update where the
// codec has no tape form) and writes each message with proto.WriteMessage;
// the client reads it with proto.ReadMessage and renders it with Apply,
// then sends an input report the server decodes. Session 0 plays a
// seed-varied photographic animation (bitmap-heavy), session 1 an office
// trace (text and fills). The two connections are
// dialled once per iteration and carry every codec's sessions in turn, so
// no more than two are ever open.

// streamAnimationSpan balances the codecs: lbx compresses with DEFLATE and
// costs over ten times as much per frame as the others, so it plays a
// shorter animation.
var streamAnimationSpan = map[string]simclock.Duration{
	"rdp":  40 * simclock.Second,
	"x":    40 * simclock.Second,
	"lbx":  4 * simclock.Second,
	"vnc":  20 * simclock.Second,
	"slim": 40 * simclock.Second,
}

// streamInput is the input report every client sends once its display
// stream ends: a keystroke and a click.
var streamInput = []display.InputEvent{
	display.KeyEvent{Down: true, Code: 28},
	display.KeyEvent{Down: false, Code: 28},
	display.MouseMove{X: 400, Y: 300},
	display.MouseButton{Down: true, Button: 1},
	display.MouseButton{Down: false, Button: 1},
}

// endOfStream marks the end of a display stream or an input report.
var endOfStream = proto.Message{Channel: proto.Display, Kind: "EOF"}

// streamSession is one session's inputs and both ends' outputs.
type streamSession struct {
	codec string
	trace workload.Trace
	srv   proto.Server
	cli   proto.Client

	sent, sentBytes     int // server side
	read, readBytes     int // client side
	applied, inputEvent int
}

// streamRef is a session's reference outcome: the same trace encoded and
// applied in process, with no connection in between.
type streamRef struct {
	messages, bytes, inputEvents int
	hash                         uint64
}

type stream struct {
	seed    uint64
	workers int
	sp      *spans
	codecs  []string

	sessions []*streamSession // codec-major, two per codec
	srvConn  [2]net.Conn
	cliConn  [2]net.Conn
	refs     map[int]streamRef // by session index; inputs repeat each iteration
}

func newStream(seed uint64, workers int, sp *spans) *stream {
	return &stream{seed: seed, workers: workers, sp: sp, codecs: protos.Names(), refs: map[int]streamRef{}}
}

// buildTrace composes the trace of session k of a codec, the idx-th
// session overall.
func (s *stream) buildTrace(codec string, k, idx int) workload.Trace {
	if k == 0 {
		return workload.AnimationTrace(workload.AnimationConfig{
			Seed: simclock.DeriveSeed(s.seed, uint64(idx)), Frames: 10, FPS: 20, W: 150, H: 115, X: 100, Y: 100,
			Span: streamAnimationSpan[codec], Photo: true,
		})
	}
	// The office trace keeps its default seed: its message count, and
	// with it lbx's per-message DEFLATE cost, would otherwise swing the
	// workload's allocation by a tenth from seed to seed.
	cfg := workload.DefaultOfficeConfig()
	cfg.TypingChars = 200
	cfg.PaintStrokes = 10
	cfg.PanelActions = 4
	cfg.ReviewScrolls = 20
	return workload.OfficeTrace(cfg)
}

// Setup builds every session's trace and codec pair, then listens and
// dials the two connections. Connections a failed iteration left open are
// closed first.
func (s *stream) Setup() error {
	s.closeConns()
	s.sessions = s.sessions[:0]
	for _, codec := range s.codecs {
		for k := 0; k < 2; k++ {
			ss := &streamSession{codec: codec}
			s.sp.do("workload.Trace", -1, func(int) error {
				ss.trace = s.buildTrace(codec, k, len(s.sessions))
				return nil
			})
			err := s.sp.do("protos.New", -1, func(int) error {
				var err error
				ss.srv, ss.cli, _, err = protos.New(codec)
				return err
			})
			if err != nil {
				return err
			}
			s.sessions = append(s.sessions, ss)
		}
	}
	return s.sp.do("net.Dial", -1, func(int) error {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		for i := range s.cliConn {
			if s.cliConn[i], err = net.Dial("tcp", ln.Addr().String()); err != nil {
				return err
			}
			if s.srvConn[i], err = ln.Accept(); err != nil {
				return err
			}
		}
		return nil
	})
}

// Run streams every codec's two sessions, codec after codec, then closes
// the connections.
func (s *stream) Run() error {
	defer s.closeConns()
	for c := range s.codecs {
		pair := s.sessions[2*c : 2*c+2]
		if s.workers == 1 {
			for i, ss := range pair {
				if err := s.session(ss, i); err != nil {
					return err
				}
			}
			continue
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		for i, ss := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[i] = s.session(ss, i)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	return nil
}

func (s *stream) closeConns() {
	for i := range s.srvConn {
		for _, c := range []net.Conn{s.srvConn[i], s.cliConn[i]} {
			if c != nil {
				c.Close()
			}
		}
		s.srvConn[i], s.cliConn[i] = nil, nil
	}
}

// session runs one session over connection i: the server end and the
// client end on their own goroutines. An error on either end closes the
// connection so the other end stops too.
func (s *stream) session(ss *streamSession, i int) error {
	var wg sync.WaitGroup
	var srvErr, cliErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		if srvErr = s.sp.do("stream.server", -1, func(int) error { return serveSession(ss, s.srvConn[i], s.sp.timer()) }); srvErr != nil {
			s.srvConn[i].Close()
		}
	}()
	go func() {
		defer wg.Done()
		if cliErr = s.sp.do("stream.client", -1, func(int) error { return viewSession(ss, s.cliConn[i], s.sp.timer()) }); cliErr != nil {
			s.cliConn[i].Close()
		}
	}()
	wg.Wait()
	if err := errors.Join(srvErr, cliErr); err != nil {
		return fmt.Errorf("stream %s session %d: %w", ss.codec, i, err)
	}
	return nil
}

// serveSession is the server end: encode and write the trace, mark its
// end, then read and decode the client's input report.
func serveSession(ss *streamSession, conn net.Conn, ct *callTimer) error {
	defer ct.merge()
	ss.sent, ss.sentBytes, ss.inputEvent = 0, 0, 0
	ts, _ := ss.srv.(proto.TapeServer)
	var sc proto.Scratch
	var ops []display.Op
	for _, b := range ss.trace.Display {
		t0 := ct.start()
		var msgs []proto.Message
		if ts != nil {
			msgs = ts.UpdateTape(b.Tape, b.From, b.To, &sc)
		} else {
			ops = b.Tape.AppendTo(ops[:0], b.From, b.To)
			msgs = ss.srv.Update(ops)
		}
		ct.end("encode", t0)
		for _, m := range msgs {
			t0 := ct.start()
			if err := proto.WriteMessage(conn, m); err != nil {
				return fmt.Errorf("write: %w", err)
			}
			ct.end("write", t0)
			ss.sent++
			ss.sentBytes += m.Size()
		}
	}
	if err := proto.WriteMessage(conn, endOfStream); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	for {
		m, err := proto.ReadMessage(conn)
		if err != nil {
			return fmt.Errorf("input read: %w", err)
		}
		if m.Kind == endOfStream.Kind {
			return nil
		}
		events, err := ss.srv.DecodeInput(m)
		if err != nil {
			return fmt.Errorf("input decode: %w", err)
		}
		ss.inputEvent += len(events)
	}
}

// viewSession is the client end: read and apply display messages until
// the end mark, then send the input report.
func viewSession(ss *streamSession, conn net.Conn, ct *callTimer) error {
	defer ct.merge()
	ss.read, ss.readBytes, ss.applied = 0, 0, 0
	for {
		t0 := ct.start()
		m, err := proto.ReadMessage(conn)
		if err != nil {
			return fmt.Errorf("read: %w", err)
		}
		ct.end("read", t0)
		if m.Kind == endOfStream.Kind {
			break
		}
		ss.read++
		ss.readBytes += m.Size()
		t0 = ct.start()
		if err := ss.cli.Apply(m); err != nil {
			return fmt.Errorf("apply: %w", err)
		}
		ct.end("apply", t0)
		ss.applied++
	}
	for _, m := range ss.cli.EncodeInput(streamInput) {
		if err := proto.WriteMessage(conn, m); err != nil {
			return fmt.Errorf("input write: %w", err)
		}
	}
	return proto.WriteMessage(conn, endOfStream)
}

// reference encodes and applies a session's trace in process with a fresh
// codec pair.
func reference(ss *streamSession) (streamRef, error) {
	srv, cli, _, err := protos.New(ss.codec)
	if err != nil {
		return streamRef{}, err
	}
	var ref streamRef
	ts, _ := srv.(proto.TapeServer)
	var sc proto.Scratch
	for _, b := range ss.trace.Display {
		var msgs []proto.Message
		if ts != nil {
			msgs = ts.UpdateTape(b.Tape, b.From, b.To, &sc)
		} else {
			msgs = srv.Update(b.Ops())
		}
		for _, m := range msgs {
			if err := cli.Apply(m); err != nil {
				return ref, fmt.Errorf("reference apply: %w", err)
			}
			ref.messages++
			ref.bytes += m.Size()
		}
	}
	ref.hash = cli.Framebuffer().Hash()
	for _, m := range cli.EncodeInput(streamInput) {
		events, err := srv.DecodeInput(m)
		if err != nil {
			return ref, fmt.Errorf("reference input decode: %w", err)
		}
		ref.inputEvents += len(events)
	}
	return ref, nil
}

// Check requires, for every session, the client framebuffer to equal the
// reference render and the message and byte counts to agree at both ends
// and with the reference. It also requires the digest of all sessions to
// equal the recorded one, so a change that alters what a codec sends or
// renders fails even though the in-process reference changes with it.
func (s *stream) Check() (int, int, error) {
	attempted, failed, err := checkRecorded("stream", s.seed, s.Digest())
	errs := []error{err}
	for i, ss := range s.sessions {
		attempted++
		ref, ok := s.refs[i]
		if !ok {
			var err error
			if ref, err = reference(ss); err != nil {
				failed++
				errs = append(errs, err)
				continue
			}
			s.refs[i] = ref
		}
		got := streamRef{messages: ss.applied, bytes: ss.readBytes, inputEvents: ss.inputEvent, hash: ss.cli.Framebuffer().Hash()}
		if got != ref || ss.sent != ss.read || ss.sentBytes != ss.readBytes {
			failed++
			errs = append(errs, fmt.Errorf("stream %s session %d: sent %d msgs/%d B, read %d/%d B, applied %d, input %d, hash %x; reference %d msgs/%d B, input %d, hash %x",
				ss.codec, i%2, ss.sent, ss.sentBytes, ss.read, ss.readBytes, ss.applied, ss.inputEvent, got.hash, ref.messages, ref.bytes, ref.inputEvents, ref.hash))
		}
	}
	return attempted, failed, errors.Join(errs...)
}

// Digest covers every session's message, byte and input counts and its
// final framebuffer.
func (s *stream) Digest() string {
	d := &digest{}
	for _, ss := range s.sessions {
		d.add(ss.codec+"."+ss.trace.Name, float64(ss.applied))
		d.add("bytes", float64(ss.readBytes))
		d.add("input", float64(ss.inputEvent))
		d.addBits("hash", ss.cli.Framebuffer().Hash())
	}
	return d.sum()
}

func (s *stream) UserSeconds() float64 {
	var sec float64
	for _, ss := range s.sessions {
		sec += ss.trace.Duration().Seconds()
	}
	return sec
}

func (s *stream) Stats() map[string]float64 {
	var msgs, bytes, events float64
	for _, ss := range s.sessions {
		msgs += float64(ss.applied)
		bytes += float64(ss.readBytes)
		events += float64(ss.inputEvent)
	}
	return map[string]float64{"stream.messages": msgs, "stream.bytes": bytes, "stream.input_events": events}
}
