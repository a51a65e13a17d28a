// Package vnc implements a VNC-like remote display protocol, one of the
// two related-work comparators the paper discusses in §7 (Richardson et
// al., "Virtual Network Computing", IEEE Internet Computing 1998).
//
// Architecturally it differs from every drawing-order protocol in this
// repository: the server renders into its own framebuffer and ships
// *pixel rectangles* — the damaged region after each update — rather than
// drawing commands. Rectangles are encoded Raw or RRE (rise-and-run-length,
// an original RFB 3.3 encoding: a background color plus foreground
// subrectangles), whichever is smaller. There is no client-side cache, the
// property that puts VNC in the same camp as X and SLIM on animated
// content.
package vnc

import (
	"fmt"

	"thinbench/internal/display"
	"thinbench/internal/proto"
)

// Rectangle encodings, numbered as in RFB.
const (
	encRaw      = 0
	encCopyRect = 1
	encRRE      = 2
)

// Input message types, as in RFB.
const (
	msgKeyEvent     = 4
	msgPointerEvent = 5
)

// Config parameterizes the endpoints.
type Config struct {
	// ScreenW, ScreenH size both framebuffers.
	ScreenW, ScreenH int
	// MaxRRESubrects bounds RRE analysis; damage with more distinct
	// foreground subrectangles ships Raw (RRE would expand).
	MaxRRESubrects int
}

// DefaultConfig sizes the session like the other protocols.
func DefaultConfig() Config {
	return Config{
		ScreenW:        display.TypicalScreenW,
		ScreenH:        display.TypicalScreenH,
		MaxRRESubrects: 64,
	}
}

// Server renders updates into a server-side framebuffer and encodes the
// damaged rectangle each flush.
type Server struct {
	cfg Config
	fb  *display.Framebuffer

	lastX, lastY int // pointer state from decoded input

	// Encoder scratch, reused across updates so the steady-state echo
	// pipeline allocates nothing: the pending damage list, the RRE
	// subrectangle analysis, and the RRE body buffer.
	pending []display.Rect
	subs    []rreSub
	rreBuf  []byte
}

// NewServer builds the application-side endpoint.
func NewServer(cfg Config) *Server {
	if cfg.ScreenW <= 0 {
		cfg = DefaultConfig()
	}
	return &Server{cfg: cfg, fb: display.NewFramebuffer(cfg.ScreenW, cfg.ScreenH)}
}

// Name implements proto.Server.
func (s *Server) Name() string { return "vnc" }

// ResetSession implements proto.Server: a cleared server framebuffer and
// no pointer state, keeping the framebuffer and scratch allocations.
func (s *Server) ResetSession() {
	s.fb.Reset()
	s.lastX, s.lastY = 0, 0
}

// Framebuffer exposes the server's rendering, for tests.
func (s *Server) Framebuffer() *display.Framebuffer { return s.fb }

// SetupBytes implements proto.Server: the RFB handshake is tiny —
// ProtocolVersion exchange, security, ClientInit/ServerInit with the
// desktop name and pixel format.
func (s *Server) SetupBytes() int {
	return 12 + 12 + // ProtocolVersion both ways
		4 + 4 + // security negotiation
		1 + // ClientInit
		24 + len("thinbench-vnc") // ServerInit + name
}

// Update implements proto.Server with proto.UpdateOps.
func (s *Server) Update(ops []display.Op) []proto.Message { return proto.UpdateOps(s, ops) }

// UpdateTape implements proto.Server: apply the tape entries [from, to) to
// the server framebuffer, then ship one FramebufferUpdate carrying a
// rectangle per damaged region.
// On-screen copies (scrolling) become CopyRect rectangles — RFB's answer
// to scroll traffic; other damage merges where it overlaps, as a real RFB
// server's region tracking behaves.
//
// Ordering is load-bearing: a CopyRect reads the *client's* framebuffer,
// so pixel damage preceding a copy must be encoded from the server
// framebuffer as it stood before the copy executed. Pending damage is
// therefore encoded ("flushed") the moment a copy op arrives.
//
// Rectangles are written straight into one payload buffer in flush order
// with the rectangle count patched into the header afterward, and the
// damage list and RRE analysis scratch are reused across updates, so a
// warm encode allocates nothing.
//
//thinlint:hotpath
func (s *Server) UpdateTape(t *display.OpTape, from, to int, sc *proto.Scratch) []proto.Message {
	if to <= from {
		return nil
	}
	w := proto.WriterOver(sc.Buf)
	w.U8(0)  // FramebufferUpdate
	w.U8(0)  // pad
	w.U16(0) // rectangle count, patched below
	rects := 0
	s.pending = s.pending[:0]
	for i := from; i < to; i++ {
		if t.Kind(i) == display.KindCopy {
			// Encode prior damage from the pre-copy framebuffer state.
			rects = s.flushPending(&w, rects)
			src, dx, dy := t.CopyAt(i)
			s.fb.ApplyCopy(src, dx, dy)
			d := clipRect(display.Rect{X: dx, Y: dy, W: src.W, H: src.H}, s.cfg.ScreenW, s.cfg.ScreenH)
			if !d.Empty() {
				w.I16(int16(d.X)).I16(int16(d.Y))
				w.U16(uint16(d.W)).U16(uint16(d.H))
				w.U32(encCopyRect)
				w.I16(int16(src.X)).I16(int16(src.Y))
				rects++
			}
			continue
		}
		switch t.Kind(i) {
		case display.KindFill:
			r, color := t.FillAt(i)
			s.fb.ApplyFill(r, color)
		case display.KindText:
			x, y, text, color := t.TextAt(i)
			s.fb.ApplyText(x, y, text, color)
		case display.KindBlit:
			x, y, img := t.BlitAt(i)
			s.fb.ApplyBlit(x, y, img)
		}
		d := clipRect(t.BoundsAt(i), s.cfg.ScreenW, s.cfg.ScreenH)
		if !d.Empty() {
			s.pending = mergeRect(s.pending, d)
		}
	}
	rects = s.flushPending(&w, rects)
	b := w.Bytes()
	sc.Buf = b
	if rects == 0 {
		return nil
	}
	b[2] = byte(rects)
	b[3] = byte(rects >> 8)
	sc.Msgs = append(sc.Msgs[:0], proto.Message{Channel: proto.Display, Kind: "FramebufferUpdate", Payload: b})
	return sc.Msgs
}

// flushPending encodes every pending damage rectangle from the current
// framebuffer state and empties the list, returning the updated rectangle
// count.
//
//thinlint:hotpath
func (s *Server) flushPending(w *proto.Writer, rects int) int {
	for _, r := range s.pending {
		s.encodeRect(w, r)
		rects++
	}
	s.pending = s.pending[:0]
	return rects
}

// mergeRect adds r to the damage list, unioning it with any rectangle it
// intersects (repeatedly, since a union can create new intersections).
func mergeRect(rects []display.Rect, r display.Rect) []display.Rect {
	for {
		merged := false
		kept := rects[:0]
		for _, o := range rects {
			if intersects(r, o) {
				r = r.Union(o)
				merged = true
				continue
			}
			kept = append(kept, o)
		}
		rects = kept
		if !merged {
			return append(rects, r)
		}
	}
}

func intersects(a, b display.Rect) bool {
	return a.X < b.X+b.W && b.X < a.X+a.W && a.Y < b.Y+b.H && b.Y < a.Y+a.H
}

func clipRect(r display.Rect, w, h int) display.Rect {
	if r.X < 0 {
		r.W += r.X
		r.X = 0
	}
	if r.Y < 0 {
		r.H += r.Y
		r.Y = 0
	}
	if r.X+r.W > w {
		r.W = w - r.X
	}
	if r.Y+r.H > h {
		r.H = h - r.Y
	}
	return r
}

// encodeRect appends one damage rectangle encoded from the current
// framebuffer state: a 12-byte rectangle header plus Raw or RRE pixel
// data, whichever is smaller.
func (s *Server) encodeRect(w *proto.Writer, d display.Rect) {
	w.I16(int16(d.X)).I16(int16(d.Y))
	w.U16(uint16(d.W)).U16(uint16(d.H))
	if rre, ok := s.tryRRE(d); ok && len(rre) < d.W*d.H {
		w.U32(encRRE)
		w.U32(uint32(len(rre)))
		w.Raw(rre)
		return
	}
	w.U32(encRaw)
	for y := d.Y; y < d.Y+d.H; y++ {
		row := s.fb.Pix[y*s.fb.W+d.X : y*s.fb.W+d.X+d.W]
		w.Raw(row)
	}
}

// tryRRE analyzes the rectangle: most common color becomes the background;
// runs of other colors become subrectangles (height-1 runs, the simple
// variant). Fails when the subrect count exceeds the configured bound.
func (s *Server) tryRRE(d display.Rect) ([]byte, bool) {
	// Find the dominant color with a small histogram.
	var hist [256]int
	for y := d.Y; y < d.Y+d.H; y++ {
		for x := d.X; x < d.X+d.W; x++ {
			hist[s.fb.At(x, y)]++
		}
	}
	bg, best := byte(0), -1
	for c, n := range hist {
		if n > best {
			bg, best = byte(c), n
		}
	}
	subs := s.subs[:0]
	for y := d.Y; y < d.Y+d.H; y++ {
		x := d.X
		for x < d.X+d.W {
			c := s.fb.At(x, y)
			if c == bg {
				x++
				continue
			}
			run := 1
			for x+run < d.X+d.W && s.fb.At(x+run, y) == c {
				run++
			}
			subs = append(subs, rreSub{x - d.X, y - d.Y, run, c})
			if len(subs) > s.cfg.MaxRRESubrects {
				s.subs = subs
				return nil, false
			}
			x += run
		}
	}
	s.subs = subs
	w := proto.WriterOver(s.rreBuf)
	w.U32(uint32(len(subs)))
	w.U8(bg)
	for _, r := range subs {
		w.U8(r.color)
		w.U16(uint16(r.x)).U16(uint16(r.y))
		w.U16(uint16(r.w)).U16(1)
	}
	s.rreBuf = w.Bytes()
	return s.rreBuf, true
}

// rreSub is one RRE foreground subrectangle (height-1 run) found by tryRRE.
type rreSub struct {
	x, y, w int
	color   byte
}

// DecodeInput implements proto.Server.
func (s *Server) DecodeInput(m proto.Message) ([]display.InputEvent, error) {
	return proto.DecodeWith(m, s.walkInput)
}

// ValidateInput implements proto.Server.
func (s *Server) ValidateInput(m proto.Message) (int, error) { return s.walkInput(m, nil) }

// walkInput is the one walk of an input message — fixed-size RFB client
// messages, one per event — returning the event count; events are
// appended to sink when it is non-nil. Pointer messages become motion
// only when the position changed, the way an RFB server tracks pointer and
// button state, so the walk updates that state with or without a sink.
//
//thinlint:hotpath
func (s *Server) walkInput(m proto.Message, sink *[]display.InputEvent) (int, error) {
	if m.Channel != proto.Input {
		return 0, fmt.Errorf("%w: input decode of %v message", proto.ErrBadMessage, m.Channel) //thinlint:allow hotpath error path: runs only on a malformed input PDU, never in steady state
	}
	r := proto.NewReader(m.Payload)
	n := 0
	for r.Remaining() > 0 {
		switch typ := r.U8(); typ {
		case msgKeyEvent:
			down := r.U8()
			r.U16() // pad
			key := r.U32()
			if sink != nil {
				*sink = append(*sink, display.KeyEvent{Down: down != 0, Code: uint16(key)}) //thinlint:allow hotpath.box event sink: nil on the validate-only echo path
			}
			n++
		case msgPointerEvent:
			mask := r.U8()
			x, y := r.I16(), r.I16()
			if int(x) != s.lastX || int(y) != s.lastY {
				s.lastX, s.lastY = int(x), int(y)
				if sink != nil {
					*sink = append(*sink, display.MouseMove{X: int(x), Y: int(y)}) //thinlint:allow hotpath.box event sink: nil on the validate-only echo path
				}
				n++
			}
			if mask&0x80 != 0 {
				if sink != nil {
					*sink = append(*sink, display.MouseButton{Down: mask&1 != 0, Button: (mask >> 1) & 0x7}) //thinlint:allow hotpath.box event sink: nil on the validate-only echo path
				}
				n++
			}
		default:
			return 0, fmt.Errorf("%w: unknown client message %d", proto.ErrBadMessage, typ) //thinlint:allow hotpath error path: runs only on a malformed input PDU, never in steady state
		}
		if err := r.Err(); err != nil {
			return 0, err
		}
	}
	return n, nil
}

// Client applies framebuffer updates and encodes RFB client messages. A
// screenless client (NewScreenlessClient) walks and checks every update
// the same way but has no framebuffer and paints nothing.
type Client struct {
	cfg Config
	fb  *display.Framebuffer // nil for a screenless client

	lastX, lastY int // pointer position carried on button events
}

// NewClient builds the terminal-side endpoint.
func NewClient(cfg Config) *Client {
	c := NewScreenlessClient(cfg)
	c.fb = display.NewFramebuffer(c.cfg.ScreenW, c.cfg.ScreenH)
	return c
}

// NewScreenlessClient builds a terminal-side endpoint with no screen: it
// accepts and rejects exactly the updates a NewClient endpoint does, and
// its Framebuffer is nil.
func NewScreenlessClient(cfg Config) *Client {
	if cfg.ScreenW <= 0 {
		cfg = DefaultConfig()
	}
	return &Client{cfg: cfg}
}

// Name implements proto.Client.
func (c *Client) Name() string { return "vnc" }

// Framebuffer implements proto.Client; it is nil for a screenless client.
func (c *Client) Framebuffer() *display.Framebuffer { return c.fb }

// ResetSession implements proto.Client: a cleared screen and no pointer
// position, keeping the framebuffer allocation.
func (c *Client) ResetSession() {
	if c.fb != nil {
		c.fb.Reset()
	}
	c.lastX, c.lastY = 0, 0
}

// Apply implements proto.Client.
func (c *Client) Apply(m proto.Message) error {
	r := proto.NewReader(m.Payload)
	if r.U8() != 0 {
		return fmt.Errorf("%w: not a FramebufferUpdate", proto.ErrBadMessage)
	}
	r.U8()
	nRects := int(r.U16())
	for i := 0; i < nRects; i++ {
		x, y := int(r.I16()), int(r.I16())
		w, h := int(r.U16()), int(r.U16())
		switch enc := r.U32(); enc {
		case encCopyRect:
			sx, sy := int(r.I16()), int(r.I16())
			if r.Err() != nil {
				return r.Err()
			}
			if c.fb != nil {
				c.fb.ApplyCopy(display.Rect{X: sx, Y: sy, W: w, H: h}, x, y)
			}
		case encRaw:
			for yy := 0; yy < h; yy++ {
				row := r.Raw(w)
				if r.Err() != nil {
					return r.Err()
				}
				if c.fb != nil {
					for xx := 0; xx < w; xx++ {
						c.fb.Set(x+xx, y+yy, row[xx])
					}
				}
			}
		case encRRE:
			n := int(r.U32())
			body := proto.NewReader(r.Raw(n))
			if r.Err() != nil {
				return r.Err()
			}
			nSubs := int(body.U32())
			bg := body.U8()
			if err := body.Err(); err != nil {
				return err
			}
			if c.fb != nil {
				c.fb.ApplyFill(display.Rect{X: x, Y: y, W: w, H: h}, bg)
			}
			for s := 0; s < nSubs; s++ {
				color := body.U8()
				sx, sy := int(body.U16()), int(body.U16())
				sw, sh := int(body.U16()), int(body.U16())
				// A count past the body stops at the first short read
				// instead of spinning through billions of empty ones.
				if err := body.Err(); err != nil {
					return err
				}
				if c.fb != nil {
					c.fb.ApplyFill(display.Rect{X: x + sx, Y: y + sy, W: sw, H: sh}, color)
				}
			}
		default:
			return fmt.Errorf("%w: unknown encoding %d", proto.ErrBadMessage, enc)
		}
	}
	return r.Err()
}

// EncodeInput implements proto.Client.
func (c *Client) EncodeInput(events []display.InputEvent) []proto.Message {
	return c.EncodeInputScratch(events, &proto.Scratch{})
}

// EncodeInputScratch implements proto.Client: one fixed-size message per
// event, all sharing a flush write (RFB clients write per event; the batch
// is one socket write).
//
//thinlint:hotpath
func (c *Client) EncodeInputScratch(events []display.InputEvent, sc *proto.Scratch) []proto.Message {
	if len(events) == 0 {
		return nil
	}
	w := proto.WriterOver(sc.Buf)
	for _, ev := range events {
		switch e := ev.(type) {
		case display.KeyEvent:
			w.U8(msgKeyEvent)
			if e.Down {
				w.U8(1)
			} else {
				w.U8(0)
			}
			w.U16(0)
			w.U32(uint32(e.Code))
		case display.MouseMove:
			c.lastX, c.lastY = e.X, e.Y
			w.U8(msgPointerEvent)
			w.U8(0)
			w.I16(int16(e.X)).I16(int16(e.Y))
		case display.MouseButton:
			w.U8(msgPointerEvent)
			mask := uint8(0x80) | (e.Button&0x7)<<1
			if e.Down {
				mask |= 1
			}
			w.U8(mask)
			// Button events carry the current pointer position, so the
			// server sees no spurious motion.
			w.I16(int16(c.lastX)).I16(int16(c.lastY))
		default:
			panic(fmt.Sprintf("vnc: unsupported input event %T", ev))
		}
	}
	b := w.Bytes()
	sc.Buf = b
	sc.Msgs = append(sc.Msgs[:0], proto.Message{Channel: proto.Input, Kind: "ClientEvents", Payload: b})
	return sc.Msgs
}

// Compile-time interface conformance.
var (
	_ proto.Server = (*Server)(nil)
	_ proto.Client = (*Client)(nil)
)
