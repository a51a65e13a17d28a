// Package slim implements a SLIM-like remote display protocol, the second
// related-work comparator of the paper's §7 (Schmidt, Lam & Northcutt,
// "The interactive performance of SLIM: a stateless, thin-client
// architecture", SOSP 1999 — the protocol inside Sun's SunRay).
//
// SLIM's design point is *statelessness*: a tiny fixed command set — SET
// (raw pixels), BITMAP (two-color bitmap, ideal for text), FILL (solid
// color), COPY (on-screen move) — with no client-side caching of any kind.
// The paper's observation, which this implementation reproduces, is that
// SLIM lands "roughly equivalent in performance to X": compact commands
// help, but without a bitmap cache, repeated and animated content costs
// full transfers every time.
package slim

import (
	"fmt"
	"unicode/utf8"

	"thinbench/internal/display"
	"thinbench/internal/proto"
)

// Command opcodes.
const (
	cmdSet    = 0x01 // raw pixel rectangle
	cmdBitmap = 0x02 // 1-bpp bitmap with foreground/background colors
	cmdFill   = 0x03 // solid rectangle
	cmdCopy   = 0x04 // on-screen copy
)

// Input event opcodes.
const (
	inKey     = 0x11
	inPointer = 0x12
	inButton  = 0x13
)

// Config sizes the endpoints.
type Config struct {
	ScreenW, ScreenH int
}

// DefaultConfig matches the other protocols' screen.
func DefaultConfig() Config {
	return Config{ScreenW: display.TypicalScreenW, ScreenH: display.TypicalScreenH}
}

// Server encodes display updates as SLIM commands; the protocol is
// stateless, so the server needs no session state at all beyond its name —
// exactly the property Schmidt et al. designed for. (The spans field is
// encoder scratch, not protocol state: per-update offset bookkeeping
// reused so steady-state encoding allocates nothing.)
type Server struct {
	cfg   Config
	spans []proto.Span
}

// NewServer builds the application-side endpoint.
func NewServer(cfg Config) *Server {
	if cfg.ScreenW <= 0 {
		cfg = DefaultConfig()
	}
	return &Server{cfg: cfg}
}

// Name implements proto.Server.
func (s *Server) Name() string { return "slim" }

// ResetSession implements proto.Server. The protocol is stateless, so
// there is nothing to reset.
func (s *Server) ResetSession() {}

// SetupBytes implements proto.Server: SLIM's session setup is a minimal
// authentication and display-geometry exchange through the authentication
// manager.
func (s *Server) SetupBytes() int { return 642 }

// Update implements proto.Server with proto.UpdateOps.
func (s *Server) Update(ops []display.Op) []proto.Message { return proto.UpdateOps(s, ops) }

// UpdateTape implements proto.Server: each tape entry becomes one command
// message (SLIM has no batching layer; the wire unit is the command). The
// commands are encoded back to back into one shared payload arena and
// carved into messages once it has stopped growing, so a steady-state echo
// burst reuses a single buffer and message slice instead of allocating per
// command.
//
//thinlint:hotpath
func (s *Server) UpdateTape(t *display.OpTape, from, to int, sc *proto.Scratch) []proto.Message {
	w := proto.WriterOver(sc.Buf)
	spans := s.spans[:0]
	for i := from; i < to; i++ {
		start := w.Len()
		kind := encodeEntry(&w, t, i)
		spans = append(spans, proto.Span{Start: start, End: w.Len(), Kind: kind})
	}
	s.spans = spans
	return proto.Carve(sc, w.Bytes(), proto.Display, spans)
}

func cmdHeader(w *proto.Writer, op uint8, x, y, width, height int) {
	w.U8(op)
	w.I16(int16(x)).I16(int16(y))
	w.U16(uint16(width)).U16(uint16(height))
}

// encodeEntry appends the command for tape entry i to the shared writer and
// returns its message kind.
//
//thinlint:hotpath
func encodeEntry(w *proto.Writer, t *display.OpTape, i int) string {
	switch t.Kind(i) {
	case display.KindFill:
		r, color := t.FillAt(i)
		cmdHeader(w, cmdFill, r.X, r.Y, r.W, r.H)
		w.U8(color)
		return "FILL"
	case display.KindCopy:
		src, dx, dy := t.CopyAt(i)
		cmdHeader(w, cmdCopy, src.X, src.Y, src.W, src.H)
		w.I16(int16(dx)).I16(int16(dy))
		return "COPY"
	case display.KindBlit:
		x, y, img := t.BlitAt(i)
		cmdHeader(w, cmdSet, x, y, img.W, img.H)
		w.Raw(img.Pix)
		return "SET"
	case display.KindText:
		// Text renders as a two-color BITMAP: 1 bpp glyph coverage plus
		// foreground color — SLIM's answer to fonts, far cheaper than SET.
		// The UTF-8 byte walk yields the same U+FFFD replacements a range
		// loop over the string would, glyph rows come from GlyphRowBits
		// instead of a mask bitmap, and the 255-rune cap matches the byte
		// count field as before.
		x, y, text, color := t.TextAt(i)
		n := display.CountRunes(text, 255)
		width := n * display.GlyphW
		height := display.GlyphH
		cmdHeader(w, cmdBitmap, x, y, width, height)
		w.U8(color)
		w.U8(0) // transparent background flag
		var cur byte
		bit := 0
		for yy := 0; yy < height; yy++ {
			ri := 0
			for off := 0; off < len(text) && ri < n; ri++ {
				r, size := utf8.DecodeRune(text[off:])
				off += size
				row := display.GlyphRowBits(r, yy)
				for xx := 0; xx < display.GlyphW; xx++ {
					if row>>uint(xx)&1 == 1 {
						cur |= 1 << uint(bit)
					}
					bit++
					if bit == 8 {
						w.U8(cur)
						cur, bit = 0, 0
					}
				}
			}
		}
		if bit > 0 {
			w.U8(cur)
		}
		return "BITMAP"
	default:
		panic(fmt.Sprintf("slim: unknown tape kind %d", t.Kind(i)))
	}
}

// DecodeInput implements proto.Server.
func (s *Server) DecodeInput(m proto.Message) ([]display.InputEvent, error) {
	return proto.DecodeWith(m, s.walkInput)
}

// ValidateInput implements proto.Server.
func (s *Server) ValidateInput(m proto.Message) (int, error) { return s.walkInput(m, nil) }

// walkInput is the one structural walk of an input message, returning its
// event count; events are appended to sink when it is non-nil.
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
		case inKey:
			flags := r.U8()
			code := r.U16()
			if sink != nil {
				*sink = append(*sink, display.KeyEvent{Down: flags&1 != 0, Code: code}) //thinlint:allow hotpath.box event sink: nil on the validate-only echo path
			}
		case inPointer:
			x, y := r.I16(), r.I16()
			if sink != nil {
				*sink = append(*sink, display.MouseMove{X: int(x), Y: int(y)}) //thinlint:allow hotpath.box event sink: nil on the validate-only echo path
			}
		case inButton:
			flags := r.U8()
			if sink != nil {
				*sink = append(*sink, display.MouseButton{Down: flags&1 != 0, Button: flags >> 1}) //thinlint:allow hotpath.box event sink: nil on the validate-only echo path
			}
		default:
			return 0, fmt.Errorf("%w: unknown input type %d", proto.ErrBadMessage, typ) //thinlint:allow hotpath error path: runs only on a malformed input PDU, never in steady state
		}
		if err := r.Err(); err != nil {
			return 0, err
		}
		n++
	}
	return n, nil
}

// Client applies SLIM commands to its framebuffer. A screenless client
// (NewScreenlessClient) parses and checks every command the same way but
// has no framebuffer and paints nothing.
type Client struct {
	cfg Config
	fb  *display.Framebuffer // nil for a screenless client
}

// NewClient builds the terminal-side endpoint.
func NewClient(cfg Config) *Client {
	c := NewScreenlessClient(cfg)
	c.fb = display.NewFramebuffer(c.cfg.ScreenW, c.cfg.ScreenH)
	return c
}

// NewScreenlessClient builds a terminal-side endpoint with no screen: it
// accepts and rejects exactly the commands a NewClient endpoint does, and
// its Framebuffer is nil.
func NewScreenlessClient(cfg Config) *Client {
	if cfg.ScreenW <= 0 {
		cfg = DefaultConfig()
	}
	return &Client{cfg: cfg}
}

// Name implements proto.Client.
func (c *Client) Name() string { return "slim" }

// Framebuffer implements proto.Client; it is nil for a screenless client.
func (c *Client) Framebuffer() *display.Framebuffer { return c.fb }

// ResetSession implements proto.Client: a cleared screen, keeping the
// framebuffer allocation.
func (c *Client) ResetSession() {
	if c.fb != nil {
		c.fb.Reset()
	}
}

// Apply implements proto.Client.
func (c *Client) Apply(m proto.Message) error {
	r := proto.NewReader(m.Payload)
	op := r.U8()
	x, y := int(r.I16()), int(r.I16())
	w, h := int(r.U16()), int(r.U16())
	if err := r.Err(); err != nil {
		return err
	}
	switch op {
	case cmdFill:
		color := r.U8()
		if err := r.Err(); err != nil {
			return err
		}
		if c.fb != nil {
			c.fb.ApplyFill(display.Rect{X: x, Y: y, W: w, H: h}, color)
		}
	case cmdCopy:
		dx, dy := int(r.I16()), int(r.I16())
		if err := r.Err(); err != nil {
			return err
		}
		if c.fb != nil {
			c.fb.ApplyCopy(display.Rect{X: x, Y: y, W: w, H: h}, dx, dy)
		}
	case cmdSet:
		pix := r.Raw(w * h)
		if err := r.Err(); err != nil {
			return err
		}
		if w == 0 || h == 0 {
			return fmt.Errorf("%w: SET of size %dx%d", proto.ErrBadMessage, w, h)
		}
		if c.fb != nil {
			c.fb.ApplyBlit(x, y, &display.Bitmap{W: w, H: h, Pix: pix})
		}
	case cmdBitmap:
		fg := r.U8()
		r.U8() // background flag (transparent)
		data := r.Raw((w*h + 7) / 8)
		if err := r.Err(); err != nil {
			return err
		}
		if c.fb == nil {
			return nil
		}
		bit := 0
		for yy := 0; yy < h; yy++ {
			for xx := 0; xx < w; xx++ {
				if data[bit/8]>>(uint(bit)%8)&1 == 1 {
					c.fb.Set(x+xx, y+yy, fg)
				}
				bit++
			}
		}
	default:
		return fmt.Errorf("%w: unknown command %d", proto.ErrBadMessage, op)
	}
	return nil
}

// EncodeInput implements proto.Client.
func (c *Client) EncodeInput(events []display.InputEvent) []proto.Message {
	return c.EncodeInputScratch(events, &proto.Scratch{})
}

// EncodeInputScratch implements proto.Client: compact fixed events sharing
// one flush write.
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
			flags := uint8(0)
			if e.Down {
				flags = 1
			}
			w.U8(inKey).U8(flags).U16(e.Code)
		case display.MouseMove:
			w.U8(inPointer).I16(int16(e.X)).I16(int16(e.Y))
		case display.MouseButton:
			flags := e.Button << 1
			if e.Down {
				flags |= 1
			}
			w.U8(inButton).U8(flags)
		default:
			panic(fmt.Sprintf("slim: unsupported input event %T", ev))
		}
	}
	b := w.Bytes()
	sc.Buf = b
	sc.Msgs = append(sc.Msgs[:0], proto.Message{Channel: proto.Input, Kind: "InputEvents", Payload: b})
	return sc.Msgs
}

// Compile-time interface conformance.
var (
	_ proto.Server = (*Server)(nil)
	_ proto.Client = (*Client)(nil)
)
