// Command thinserve demonstrates the remote display protocols over real
// TCP connections: a server process encodes workload display streams and
// ships them through the proto framing layer; a client process connects,
// decodes into its framebuffer, sends input back, and verifies the
// session.
//
// With -sessions N both sides multiplex N concurrent sessions — each with
// its own protocol codec state, workload trace, and TCP connection —
// across the internal/farm worker pool, exercising the paper's
// multi-user question ("how many concurrent users can this server
// support?") against real sockets.
//
// Server:  thinserve -listen :9000 -proto rdp -workload webpage -span 10 -sessions 8
// Client:  thinserve -connect localhost:9000 -proto rdp -sessions 8
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	"thinbench/internal/display"
	"thinbench/internal/farm"
	"thinbench/internal/proto"
	"thinbench/internal/proto/protos"
	"thinbench/internal/simclock"
	"thinbench/internal/workload"
)

func main() {
	var (
		listen   = flag.String("listen", "", "serve on this address (server mode)")
		connect  = flag.String("connect", "", "connect to this address (client mode)")
		prot     = flag.String("proto", "rdp", "protocol: rdp, x, lbx, vnc, slim")
		wl       = flag.String("workload", "webpage", "workload: office, webpage, animation")
		span     = flag.Int("span", 10, "workload span in seconds")
		sessions = flag.Int("sessions", 1, "concurrent sessions to serve or open")
		seed     = flag.Uint64("seed", 1999, "root seed; per-session workloads derive from it")
	)
	flag.Parse()

	switch {
	case *listen != "":
		if err := serve(*listen, *prot, *wl, *span, *sessions, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
	case *connect != "":
		if err := view(*connect, *prot, *sessions); err != nil {
			fmt.Fprintln(os.Stderr, "view:", err)
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// newServer and newClient take one endpoint of the registry's pair; the
// peer endpoint lives in the other process, so the discarded half is
// garbage immediately (cheap relative to a TCP session's lifetime).
func newServer(prot string) (proto.Server, error) {
	s, _, _, err := protos.New(prot)
	return s, err
}

func newClient(prot string) (proto.Client, error) {
	_, c, _, err := protos.New(prot)
	return c, err
}

// buildTrace composes one session's workload. The seed varies per-session
// content (animation frames, office interleavings) so concurrent sessions
// are independent streams, not N copies of one.
func buildTrace(wl string, spanSec int, seed uint64) (workload.Trace, error) {
	span := simclock.Duration(spanSec) * simclock.Second
	switch wl {
	case "office":
		cfg := workload.DefaultOfficeConfig()
		cfg.Seed = seed
		cfg.TypingChars = 200
		cfg.PaintStrokes = 10
		cfg.PanelActions = 4
		cfg.ReviewScrolls = 20
		return workload.OfficeTrace(cfg), nil
	case "webpage":
		cfg := workload.DefaultWebPageConfig()
		cfg.Span = span
		return workload.WebPageTrace(cfg), nil
	case "animation":
		return workload.AnimationTrace(workload.AnimationConfig{
			Seed: seed, Frames: 10, FPS: 20, W: 150, H: 115, X: 100, Y: 100,
			Span: span, Photo: true,
		}), nil
	}
	return workload.Trace{}, fmt.Errorf("unknown workload %q", wl)
}

// serveStats is one served session's outcome.
type serveStats struct {
	sent, bytes, events int
}

// serve accepts the configured number of clients and streams to all of
// them concurrently.
func serve(addr, prot, wl string, span, sessions int, seed uint64) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	return serveListener(ln, prot, wl, span, sessions, seed)
}

// serveListener runs the configured sessions on an existing listener:
// accept one connection per session, then serve every session at once
// across the farm, each with its own protocol encoder and workload trace.
func serveListener(ln net.Listener, prot, wl string, span, sessions int, seed uint64) error {
	if sessions < 1 {
		sessions = 1
	}
	// Validate protocol and workload before accepting anyone.
	if _, err := newServer(prot); err != nil {
		return err
	}
	if _, err := buildTrace(wl, span, seed); err != nil {
		return err
	}
	fmt.Printf("thinserve: %s workload, proto %s, %d session(s) on %s\n", wl, prot, sessions, ln.Addr())

	conns := make([]net.Conn, 0, sessions)
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for len(conns) < sessions {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		conns = append(conns, conn)
	}

	total := serveStats{}
	err := farm.Aggregate(farm.Config{Sessions: sessions, Workers: sessions, Seed: seed},
		func(s *farm.Session) (serveStats, error) {
			return serveSession(conns[s.Index], prot, wl, span, s.Seed)
		},
		func(i int, st serveStats) {
			fmt.Printf("thinserve: session %d: sent %d messages, %d bytes, %d input events\n",
				i, st.sent, st.bytes, st.events)
			total.sent += st.sent
			total.bytes += st.bytes
			total.events += st.events
		})
	if err != nil {
		return err
	}
	fmt.Printf("thinserve: total %d sessions, %d messages, %d bytes, %d input events\n",
		sessions, total.sent, total.bytes, total.events)
	return nil
}

// serveSession streams one workload over one connection and reads back the
// client's input report.
func serveSession(conn net.Conn, prot, wl string, span int, seed uint64) (serveStats, error) {
	srv, err := newServer(prot)
	if err != nil {
		return serveStats{}, err
	}
	tr, err := buildTrace(wl, span, seed)
	if err != nil {
		return serveStats{}, err
	}
	st := serveStats{}
	var sc proto.Scratch
	for _, batch := range tr.Display {
		for _, m := range srv.UpdateTape(batch.Tape, batch.From, batch.To, &sc) {
			if err := proto.WriteMessage(conn, m); err != nil {
				return st, fmt.Errorf("write: %w", err)
			}
			st.sent++
			st.bytes += m.Size()
		}
	}
	// End-of-stream marker.
	if err := proto.WriteMessage(conn, proto.Message{Channel: proto.Display, Kind: "EOF"}); err != nil {
		return st, err
	}

	// Read the client's input report.
	m, err := proto.ReadMessage(conn)
	if err != nil {
		return st, fmt.Errorf("final input read: %w", err)
	}
	events, err := srv.DecodeInput(m)
	if err != nil {
		return st, fmt.Errorf("input decode: %w", err)
	}
	st.events = len(events)
	return st, nil
}

// viewStats is one client session's outcome.
type viewStats struct {
	applied int
	ops     int64
	hash    uint64
}

// view opens the configured number of concurrent client sessions, each
// applying its own display stream and answering with input.
func view(addr, prot string, sessions int) error {
	if sessions < 1 {
		sessions = 1
	}
	if _, err := newClient(prot); err != nil {
		return err
	}
	applied := 0
	err := farm.Aggregate(farm.Config{Sessions: sessions, Workers: sessions},
		func(s *farm.Session) (viewStats, error) {
			return viewSession(addr, prot)
		},
		func(i int, st viewStats) {
			fmt.Printf("thinview: session %d: applied %d messages, %d ops rendered, hash %x\n",
				i, st.applied, st.ops, st.hash)
			applied += st.applied
		})
	if err != nil {
		return err
	}
	fmt.Printf("thinview: total %d sessions, %d messages applied\n", sessions, applied)
	return nil
}

// viewSession connects, applies the display stream, and sends a burst of
// input.
func viewSession(addr, prot string) (viewStats, error) {
	cli, err := newClient(prot)
	if err != nil {
		return viewStats{}, err
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return viewStats{}, err
	}
	defer conn.Close()

	st := viewStats{}
	for {
		m, err := proto.ReadMessage(conn)
		if err != nil {
			return st, fmt.Errorf("read: %w", err)
		}
		if m.Kind == "EOF" {
			break
		}
		if err := cli.Apply(m); err != nil {
			return st, fmt.Errorf("apply: %w", err)
		}
		st.applied++
	}
	fb := cli.Framebuffer()
	st.ops = fb.Ops()
	st.hash = fb.Hash()

	// Send a keystroke + click so the server exercises input decoding.
	events := []display.InputEvent{
		display.KeyEvent{Down: true, Code: 28},
		display.KeyEvent{Down: false, Code: 28},
		display.MouseMove{X: 400, Y: 300},
		display.MouseButton{Down: true, Button: 1},
		display.MouseButton{Down: false, Button: 1},
	}
	for _, m := range cli.EncodeInput(events) {
		if err := proto.WriteMessage(conn, m); err != nil {
			return st, fmt.Errorf("input write: %w", err)
		}
	}
	return st, nil
}
