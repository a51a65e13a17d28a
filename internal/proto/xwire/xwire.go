// Package xwire implements an X11-like remote display protocol: verbose
// fixed-layout requests on the display channel, 32-byte events on the input
// channel, raw (uncached, uncompressed) pixel pushes for image data, and a
// multi-kilobyte connection setup.
//
// It is a functional equivalent of the X protocol core rather than a
// byte-compatible implementation: request and event sizes match X's (a
// PutImage is 24 bytes plus padded pixels, every input event is a fixed 32
// bytes), which is what drives the paper's network results. Text drawing
// follows X's model of server-side fonts: glyph pixels never cross the
// wire, only string bytes do.
package xwire

import (
	"fmt"

	"thinbench/internal/display"
	"thinbench/internal/proto"
)

// Request opcodes, numbered as in the X11 core protocol.
const (
	opCopyArea     = 62
	opPolyFillRect = 70
	opPutImage     = 72
	opPolyText8    = 74
)

// Event codes, as in X11.
const (
	evKeyPress      = 2
	evKeyRelease    = 3
	evButtonPress   = 4
	evButtonRelease = 5
	evMotionNotify  = 6
)

// EventSize is X's fixed wire size for every input event.
const EventSize = 32

// ids used for the session-constant drawable and graphics context fields
// that X carries in every request.
const (
	drawableID = 0x00400001
	gcID       = 0x00400002
)

// requestKinds names the X request each tape entry kind becomes, the
// message kind both this codec and the LBX proxy report.
var requestKinds = [...]string{
	display.KindFill: "PolyFillRectangle",
	display.KindCopy: "CopyArea",
	display.KindText: "PolyText8",
	display.KindBlit: "PutImage",
}

// RequestKind reports the X request a tape entry of kind k becomes.
func RequestKind(k display.OpKind) string { return requestKinds[k] }

// Server encodes screen updates as X requests and decodes X events. X
// keeps no per-session encode state; spans is encoder scratch, reused so
// steady-state encoding allocates nothing.
type Server struct {
	spans []proto.Span
}

// NewServer builds the application-side endpoint.
func NewServer() *Server { return &Server{} }

// Name implements proto.Server.
func (s *Server) Name() string { return "x" }

// ResetSession implements proto.Server. The server keeps no session
// state, so there is nothing to reset.
func (s *Server) ResetSession() {}

// setupBytesTotal sums SetupMessages once at package init so per-admission
// SetupBytes calls don't rebuild the handshake exchange.
var setupBytesTotal = func() int {
	total := 0
	for _, m := range SetupMessages() {
		total += m.Size()
	}
	return total
}()

// SetupBytes implements proto.Server: the total connection establishment
// cost. See SetupMessages for the breakdown.
func (s *Server) SetupBytes() int { return setupBytesTotal }

// Update implements proto.Server with proto.UpdateOps.
func (s *Server) Update(ops []display.Op) []proto.Message { return proto.UpdateOps(s, ops) }

// UpdateTape implements proto.Server: every drawing operation becomes its
// own request message — X has no server-side batching of the kind RDP
// performs. The requests are encoded back to back into one scratch arena
// and carved into messages once it has stopped growing.
//
//thinlint:hotpath
func (s *Server) UpdateTape(t *display.OpTape, from, to int, sc *proto.Scratch) []proto.Message {
	w := proto.WriterOver(sc.Buf)
	spans := s.spans[:0]
	for i := from; i < to; i++ {
		start := w.Len()
		encodeRequest(&w, t, i)
		spans = append(spans, proto.Span{Start: start, End: w.Len(), Kind: RequestKind(t.Kind(i))})
	}
	s.spans = spans
	return proto.Carve(sc, w.Bytes(), proto.Display, spans)
}

// encodeRequest appends the X request for tape entry i. Every request is
// a multiple of 4 bytes long, so the arena's absolute Pad4 pads each one
// relative to its own start, as X requires.
//
//thinlint:hotpath
func encodeRequest(w *proto.Writer, t *display.OpTape, i int) {
	start := w.Len()
	switch t.Kind(i) {
	case display.KindFill:
		r, color := t.FillAt(i)
		reqHeader(w, opPolyFillRect, 0)
		w.U32(drawableID).U32(gcID)
		w.I16(int16(r.X)).I16(int16(r.Y))
		w.U16(uint16(r.W)).U16(uint16(r.H))
		w.U8(color).Zero(3)
	case display.KindCopy:
		src, dx, dy := t.CopyAt(i)
		reqHeader(w, opCopyArea, 0)
		w.U32(drawableID).U32(drawableID).U32(gcID)
		w.I16(int16(src.X)).I16(int16(src.Y))
		w.I16(int16(dx)).I16(int16(dy))
		w.U16(uint16(src.W)).U16(uint16(src.H))
	case display.KindBlit:
		x, y, img := t.BlitAt(i)
		reqHeader(w, opPutImage, 2 /* ZPixmap */)
		w.U32(drawableID).U32(gcID)
		w.U16(uint16(img.W)).U16(uint16(img.H))
		w.I16(int16(x)).I16(int16(y))
		w.U8(8 /* depth */).Zero(3)
		w.Raw(img.Pix).Pad4()
	case display.KindText:
		x, y, text, color := t.TextAt(i)
		if len(text) > 255 {
			text = text[:255]
		}
		reqHeader(w, opPolyText8, 0)
		w.U32(drawableID).U32(gcID)
		w.I16(int16(x)).I16(int16(y))
		w.U8(color).U8(uint8(len(text))).Zero(2)
		w.Raw(text).Pad4()
	}
	// Patch the request's length field.
	b := w.Bytes()
	n := len(b) - start
	b[start+2] = byte(n)
	b[start+3] = byte(n >> 8)
}

func reqHeader(w *proto.Writer, opcode uint8, aux uint8) {
	w.U8(opcode).U8(aux)
	// Length field is patched after the body is written.
	w.U16(0)
}

// DecodeInput implements proto.Server.
func (s *Server) DecodeInput(m proto.Message) ([]display.InputEvent, error) {
	return proto.DecodeWith(m, s.walkInput)
}

// ValidateInput implements proto.Server.
func (s *Server) ValidateInput(m proto.Message) (int, error) { return s.walkInput(m, nil) }

// walkInput is the one walk of an input message, one or more fixed 32-byte
// events, returning the event count; events are appended to sink when it
// is non-nil.
//
//thinlint:hotpath
func (s *Server) walkInput(m proto.Message, sink *[]display.InputEvent) (int, error) {
	if m.Channel != proto.Input {
		return 0, fmt.Errorf("%w: input decode of %v message", proto.ErrBadMessage, m.Channel) //thinlint:allow hotpath error path: runs only on a malformed input message, never in steady state
	}
	if len(m.Payload)%EventSize != 0 {
		return 0, fmt.Errorf("%w: input payload %d not a multiple of %d", proto.ErrBadMessage, len(m.Payload), EventSize) //thinlint:allow hotpath error path: runs only on a malformed input message, never in steady state
	}
	for off := 0; off < len(m.Payload); off += EventSize {
		r := proto.NewReader(m.Payload[off : off+EventSize])
		typ := r.U8()
		detail := r.U8()
		r.Skip(2 + 4 + 3*4 + 2*2) // sequence, time, root/event/child windows, root x/y
		ex, ey := r.I16(), r.I16()
		// State, same-screen and pad fill the rest of the 32 bytes.
		switch typ {
		case evKeyPress, evKeyRelease:
			if sink != nil {
				*sink = append(*sink, display.KeyEvent{Down: typ == evKeyPress, Code: uint16(detail)}) //thinlint:allow hotpath.box event sink: nil on the validate-only echo path
			}
		case evButtonPress, evButtonRelease:
			if sink != nil {
				*sink = append(*sink, display.MouseButton{Down: typ == evButtonPress, Button: detail}) //thinlint:allow hotpath.box event sink: nil on the validate-only echo path
			}
		case evMotionNotify:
			if sink != nil {
				*sink = append(*sink, display.MouseMove{X: int(ex), Y: int(ey)}) //thinlint:allow hotpath.box event sink: nil on the validate-only echo path
			}
		default:
			return 0, fmt.Errorf("%w: unknown event type %d", proto.ErrBadMessage, typ) //thinlint:allow hotpath error path: runs only on a malformed input message, never in steady state
		}
	}
	return len(m.Payload) / EventSize, nil
}

// Client decodes X requests into a framebuffer and encodes input events.
// A screenless client (NewScreenlessClient) parses and checks every
// request the same way but has no framebuffer and paints nothing.
type Client struct {
	fb  *display.Framebuffer // nil for a screenless client
	seq uint16
}

// NewClient builds the terminal-side endpoint with the given screen size.
func NewClient(w, h int) *Client {
	return &Client{fb: display.NewFramebuffer(w, h)}
}

// NewScreenlessClient builds a terminal-side endpoint with no screen: it
// accepts and rejects exactly the requests a NewClient endpoint does, and
// its Framebuffer is nil.
func NewScreenlessClient() *Client { return &Client{} }

// Name implements proto.Client.
func (c *Client) Name() string { return "x" }

// Framebuffer implements proto.Client; it is nil for a screenless client.
func (c *Client) Framebuffer() *display.Framebuffer { return c.fb }

// ResetSession implements proto.Client: a cleared screen and a restarted
// event sequence, keeping the framebuffer allocation.
func (c *Client) ResetSession() {
	if c.fb != nil {
		c.fb.Reset()
	}
	c.seq = 0
}

// Apply implements proto.Client. Image pixels and text bytes render
// straight from the payload; no op is materialized.
func (c *Client) Apply(m proto.Message) error {
	q, err := parseRequest(m.Payload)
	if err != nil || c.fb == nil {
		return err
	}
	switch q.opcode {
	case opPolyFillRect:
		c.fb.ApplyFill(q.rect, q.color)
	case opCopyArea:
		c.fb.ApplyCopy(q.rect, q.dstX, q.dstY)
	case opPutImage:
		c.fb.ApplyBlit(q.rect.X, q.rect.Y, &display.Bitmap{W: q.rect.W, H: q.rect.H, Pix: q.data})
	case opPolyText8:
		c.fb.ApplyText(q.rect.X, q.rect.Y, q.data, q.color)
	}
	return nil
}

// request is one parsed X request. rect is the fill rectangle, the copy
// source, or the image's placement and size; for PolyText8 only its X and
// Y are set. data aliases the payload: PutImage pixels or PolyText8 bytes.
type request struct {
	opcode     uint8
	rect       display.Rect
	dstX, dstY int
	color      byte
	data       []byte
}

// parseRequest is the one structural walk of an X request, for
// Client.Apply.
func parseRequest(payload []byte) (request, error) {
	r := proto.NewReader(payload)
	q := request{opcode: r.U8()}
	r.U8()  // aux: ZPixmap format for PutImage, unused otherwise
	r.U16() // length
	switch q.opcode {
	case opPolyFillRect:
		r.U32()
		r.U32()
		x, y := r.I16(), r.I16()
		w, h := r.U16(), r.U16()
		q.color = r.U8()
		q.rect = display.Rect{X: int(x), Y: int(y), W: int(w), H: int(h)}
	case opCopyArea:
		r.U32()
		r.U32()
		r.U32()
		sx, sy := r.I16(), r.I16()
		dx, dy := r.I16(), r.I16()
		w, h := r.U16(), r.U16()
		q.rect = display.Rect{X: int(sx), Y: int(sy), W: int(w), H: int(h)}
		q.dstX, q.dstY = int(dx), int(dy)
	case opPutImage:
		r.U32()
		r.U32()
		w, h := r.U16(), r.U16()
		x, y := r.I16(), r.I16()
		r.U8()
		r.Skip(3)
		q.data = r.Raw(int(w) * int(h))
		if err := r.Err(); err != nil {
			return request{}, err
		}
		if w == 0 || h == 0 {
			return request{}, fmt.Errorf("%w: PutImage of size %dx%d", proto.ErrBadMessage, w, h)
		}
		q.rect = display.Rect{X: int(x), Y: int(y), W: int(w), H: int(h)}
	case opPolyText8:
		r.U32()
		r.U32()
		x, y := r.I16(), r.I16()
		q.color = r.U8()
		n := int(r.U8())
		r.Skip(2)
		q.data = r.Raw(n)
		q.rect = display.Rect{X: int(x), Y: int(y)}
	default:
		return request{}, fmt.Errorf("%w: unknown opcode %d", proto.ErrBadMessage, q.opcode)
	}
	if err := r.Err(); err != nil {
		return request{}, err
	}
	return q, nil
}

// EncodeInput implements proto.Client.
func (c *Client) EncodeInput(events []display.InputEvent) []proto.Message {
	return c.EncodeInputScratch(events, &proto.Scratch{})
}

// EncodeInputScratch implements proto.Client: each event is a fixed
// 32-byte X event; events gathered in one flush share one message (one
// write to the socket), matching how an X server flushes its event queue.
//
//thinlint:hotpath
func (c *Client) EncodeInputScratch(events []display.InputEvent, sc *proto.Scratch) []proto.Message {
	if len(events) == 0 {
		return nil
	}
	w := proto.WriterOver(sc.Buf)
	for _, ev := range events {
		c.seq++
		var typ, detail uint8
		var ex, ey int16
		switch e := ev.(type) {
		case display.KeyEvent:
			typ = evKeyRelease
			if e.Down {
				typ = evKeyPress
			}
			detail = uint8(e.Code)
		case display.MouseButton:
			typ = evButtonRelease
			if e.Down {
				typ = evButtonPress
			}
			detail = e.Button
		case display.MouseMove:
			typ = evMotionNotify
			ex, ey = int16(e.X), int16(e.Y)
		default:
			panic(fmt.Sprintf("xwire: unsupported input event %T", ev))
		}
		w.U8(typ).U8(detail).U16(c.seq)
		w.U32(0)          // timestamp
		w.U32(0x25)       // root window
		w.U32(drawableID) // event window
		w.U32(0)          // child
		w.I16(ex).I16(ey) // root coords
		w.I16(ex).I16(ey) // event coords
		w.U16(0)          // modifier state
		w.U8(1).U8(0)     // same-screen + pad
	}
	b := w.Bytes()
	sc.Buf = b
	sc.Msgs = append(sc.Msgs[:0], proto.Message{Channel: proto.Input, Kind: "Events", Payload: b})
	return sc.Msgs
}

// SetupMessages builds the connection establishment exchange. Component
// sizes follow a typical X11 handshake at the paper's vintage: the client's
// 48-byte connection request; the server's setup reply carrying vendor
// info, pixmap formats, visuals, and the keymap; then the application's
// font queries, atom interning, and window creation. The total matches the
// paper's measured 16,312 bytes for Linux/X session setup.
func SetupMessages() []proto.Message {
	block := func(kind string, ch proto.Channel, n int) proto.Message {
		w := proto.NewWriter(n)
		w.U8(1).U8(0).U16(uint16(n))
		w.Zero(n - 4)
		return proto.Message{Channel: ch, Kind: kind, Payload: w.Bytes()}
	}
	return []proto.Message{
		block("ConnRequest", proto.Input, 48),
		block("SetupReply", proto.Display, 8008),
		block("QueryFontReply", proto.Display, 3012),
		block("QueryFontReply", proto.Display, 3012),
		block("InternAtoms", proto.Input, 1024),
		block("CreateWindow+Map", proto.Input, 1208),
	}
}

// Compile-time interface conformance.
var (
	_ proto.Server = (*Server)(nil)
	_ proto.Client = (*Client)(nil)
)
