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

// Server encodes screen updates as X requests and decodes X events.
type Server struct {
	seq uint16
}

// NewServer builds the application-side endpoint.
func NewServer() *Server { return &Server{} }

// Name implements proto.Server.
func (s *Server) Name() string { return "x" }

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

// Update implements proto.Server: every drawing operation becomes its own
// request message — X has no server-side batching of the kind RDP performs.
func (s *Server) Update(ops []display.Op) []proto.Message {
	msgs := make([]proto.Message, 0, len(ops))
	for _, op := range ops {
		msgs = append(msgs, encodeRequest(op))
	}
	return msgs
}

func reqHeader(w *proto.Writer, opcode uint8, aux uint8) {
	w.U8(opcode).U8(aux)
	// Length field is patched after the body is written.
	w.U16(0)
}

func patchLength(w *proto.Writer) []byte {
	b := w.Bytes()
	n := len(b)
	b[2] = byte(n)
	b[3] = byte(n >> 8)
	return b
}

func encodeRequest(op display.Op) proto.Message {
	switch o := op.(type) {
	case display.FillRect:
		w := proto.NewWriter(24)
		reqHeader(w, opPolyFillRect, 0)
		w.U32(drawableID).U32(gcID)
		w.I16(int16(o.Rect.X)).I16(int16(o.Rect.Y))
		w.U16(uint16(o.Rect.W)).U16(uint16(o.Rect.H))
		w.U8(o.Color).Zero(3)
		return proto.Message{Channel: proto.Display, Kind: "PolyFillRectangle", Payload: patchLength(w)}
	case display.CopyArea:
		w := proto.NewWriter(28)
		reqHeader(w, opCopyArea, 0)
		w.U32(drawableID).U32(drawableID).U32(gcID)
		w.I16(int16(o.Src.X)).I16(int16(o.Src.Y))
		w.I16(int16(o.DstX)).I16(int16(o.DstY))
		w.U16(uint16(o.Src.W)).U16(uint16(o.Src.H))
		return proto.Message{Channel: proto.Display, Kind: "CopyArea", Payload: patchLength(w)}
	case display.PutBitmap:
		w := proto.NewWriter(24 + o.Img.Bytes() + 4)
		reqHeader(w, opPutImage, 2 /* ZPixmap */)
		w.U32(drawableID).U32(gcID)
		w.U16(uint16(o.Img.W)).U16(uint16(o.Img.H))
		w.I16(int16(o.X)).I16(int16(o.Y))
		w.U8(8 /* depth */).Zero(3)
		w.Raw(o.Img.Pix).Pad4()
		return proto.Message{Channel: proto.Display, Kind: "PutImage", Payload: patchLength(w)}
	case display.DrawText:
		if len(o.Text) > 255 {
			o.Text = o.Text[:255]
		}
		w := proto.NewWriter(16 + len(o.Text) + 4)
		reqHeader(w, opPolyText8, 0)
		w.U32(drawableID).U32(gcID)
		w.I16(int16(o.X)).I16(int16(o.Y))
		w.U8(o.Color).U8(uint8(len(o.Text))).Zero(2)
		w.Raw([]byte(o.Text)).Pad4()
		return proto.Message{Channel: proto.Display, Kind: "PolyText8", Payload: patchLength(w)}
	default:
		panic(fmt.Sprintf("xwire: unsupported op %T", op))
	}
}

// DecodeInput implements proto.Server: an input message holds one or more
// fixed 32-byte events.
func (s *Server) DecodeInput(m proto.Message) ([]display.InputEvent, error) {
	if m.Channel != proto.Input {
		return nil, fmt.Errorf("%w: input decode of %v message", proto.ErrBadMessage, m.Channel)
	}
	if len(m.Payload)%EventSize != 0 {
		return nil, fmt.Errorf("%w: input payload %d not a multiple of %d", proto.ErrBadMessage, len(m.Payload), EventSize)
	}
	var events []display.InputEvent
	for off := 0; off < len(m.Payload); off += EventSize {
		r := proto.NewReader(m.Payload[off : off+EventSize])
		typ := r.U8()
		detail := r.U8()
		r.U16() // sequence
		r.U32() // time
		r.U32() // root window
		r.U32() // event window
		r.U32() // child window
		r.I16() // rootX
		r.I16() // rootY
		ex := r.I16()
		ey := r.I16()
		r.U16() // state
		r.U8()  // same-screen
		r.U8()  // pad
		if err := r.Err(); err != nil {
			return nil, err
		}
		switch typ {
		case evKeyPress:
			events = append(events, display.KeyEvent{Down: true, Code: uint16(detail)})
		case evKeyRelease:
			events = append(events, display.KeyEvent{Down: false, Code: uint16(detail)})
		case evButtonPress:
			events = append(events, display.MouseButton{Down: true, Button: detail})
		case evButtonRelease:
			events = append(events, display.MouseButton{Down: false, Button: detail})
		case evMotionNotify:
			events = append(events, display.MouseMove{X: int(ex), Y: int(ey)})
		default:
			return nil, fmt.Errorf("%w: unknown event type %d", proto.ErrBadMessage, typ)
		}
	}
	return events, nil
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

// DecodeRequest parses one encoded X request into a drawing operation.
// It is exported for the LBX proxy, which transcodes X requests.
func DecodeRequest(payload []byte) (display.Op, error) {
	q, err := parseRequest(payload)
	if err != nil {
		return nil, err
	}
	switch q.opcode {
	case opPolyFillRect:
		return display.FillRect{Rect: q.rect, Color: q.color}, nil
	case opCopyArea:
		return display.CopyArea{Src: q.rect, DstX: q.dstX, DstY: q.dstY}, nil
	case opPutImage:
		img := display.NewBitmap(q.rect.W, q.rect.H)
		copy(img.Pix, q.data)
		return display.PutBitmap{X: q.rect.X, Y: q.rect.Y, Img: img}, nil
	default: // opPolyText8
		return display.DrawText{X: q.rect.X, Y: q.rect.Y, Text: string(q.data), Color: q.color}, nil
	}
}

// parseRequest is the one structural walk of an X request, shared by
// DecodeRequest and Client.Apply.
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

// EncodeInput implements proto.Client: each event is a fixed 32-byte X
// event; events gathered in one flush share one message (one write to the
// socket), matching how an X server flushes its event queue.
func (c *Client) EncodeInput(events []display.InputEvent) []proto.Message {
	if len(events) == 0 {
		return nil
	}
	w := proto.NewWriter(len(events) * EventSize)
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
	return []proto.Message{{Channel: proto.Input, Kind: "Events", Payload: w.Bytes()}}
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
