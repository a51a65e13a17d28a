// Package lbx implements a Low-Bandwidth-X-like protocol: a proxy over
// the xwire protocol that carries each verbose X request in a compact
// form (encoded straight from the op tape), delta-encodes input events
// (motion events shrink from 32 bytes to 3), compresses large pixel
// payloads with DEFLATE, and splits the result into small framing chunks.
//
// The chunking is why the paper observes LBX sending 80% more display
// messages than X while moving half the bytes: compression shrinks
// payloads, but the proxy's framing fragments large transfers.
//
// Like the xwire package, this is a functional equivalent of LBX's
// documented behavior (Fulton & Kantarjiev 1993), not a byte-compatible
// implementation; one simplification is documented on Config.ChunkBytes
// and in DESIGN.md: compression is per-request rather than stream-wide.
package lbx

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/xwire"
)

// Compact message opcodes.
const (
	cFillRect  = 0x01
	cCopyArea  = 0x02
	cPutImage  = 0x03
	cText      = 0x04
	cEventPack = 0x05
)

// Chunk framing markers (first byte of every display-channel message).
const (
	frWhole    = 0x10 // complete compact message follows
	frChunk    = 0x11 // chunk of a fragmented message, more follow
	frChunkEnd = 0x12 // final chunk
)

// Input event opcodes inside an event pack.
const (
	iKey       = 0x01
	iMotionRel = 0x02
	iMotionAbs = 0x03
	iButton    = 0x04
)

// Config parameterizes the proxy.
type Config struct {
	// ChunkBytes is the proxy's framing unit; compact messages larger than
	// this are fragmented. (Real LBX frames over a stream-wide zlib
	// context; this implementation compresses per request so every message
	// is independently decodable, a documented simplification.)
	ChunkBytes int
	// CompressThreshold: payloads at or above this size get DEFLATE'd.
	CompressThreshold int
	// ScreenW, ScreenH size the client framebuffer.
	ScreenW, ScreenH int
}

// DefaultConfig mirrors LBX's small framing units.
func DefaultConfig() Config {
	return Config{
		ChunkBytes:        256,
		CompressThreshold: 128,
		ScreenW:           display.TypicalScreenW,
		ScreenH:           display.TypicalScreenH,
	}
}

// Server is the application-side proxy endpoint: it encodes each drawing
// operation straight into the compact form of the X request it stands for
// and fragments the result.
type Server struct {
	cfg Config

	// Encoder scratch, reused so steady-state encoding allocates nothing:
	// the compact form of the entry being encoded and the message spans
	// of the update. Neither is protocol state.
	compact []byte
	spans   []proto.Span

	// Motion delta state for input decoding.
	lastX, lastY int
}

// NewServer builds the application-side endpoint.
func NewServer(cfg Config) *Server {
	if cfg.ChunkBytes <= 8 {
		cfg.ChunkBytes = 256
	}
	return &Server{cfg: cfg}
}

// Name implements proto.Server.
func (s *Server) Name() string { return "lbx" }

// ResetSession implements proto.Server: the input motion state returns to
// the origin.
func (s *Server) ResetSession() { s.lastX, s.lastY = 0, 0 }

// setupBytesTotal sums the proxied X handshake once at package init so
// per-admission SetupBytes calls don't rebuild it.
var setupBytesTotal = func() int {
	total := 146 // LBX proxy option negotiation
	for _, m := range xwire.SetupMessages() {
		total += m.Size()
	}
	return total
}()

// SetupBytes implements proto.Server: the X handshake passes through the
// proxy plus a small LBX negotiation of its own.
func (s *Server) SetupBytes() int { return setupBytesTotal }

// Update implements proto.Server with proto.UpdateOps.
func (s *Server) Update(ops []display.Op) []proto.Message { return proto.UpdateOps(s, ops) }

// UpdateTape implements proto.Server: each tape entry is encoded in the
// compact form of its X request and, if large, fragmented; every chunk is
// one message, reported under the X request's kind. The chunks are
// written back to back into one scratch arena and carved into messages
// once it has stopped growing.
//
//thinlint:hotpath
func (s *Server) UpdateTape(t *display.OpTape, from, to int, sc *proto.Scratch) []proto.Message {
	w := proto.WriterOver(sc.Buf)
	spans := s.spans[:0]
	for i := from; i < to; i++ {
		s.compact = encodeCompact(s.compact, t, i, s.cfg.CompressThreshold)
		spans = fragment(&w, spans, s.compact, xwire.RequestKind(t.Kind(i)), s.cfg.ChunkBytes)
	}
	s.spans = spans
	return proto.Carve(sc, w.Bytes(), proto.Display, spans)
}

// encodeCompact encodes tape entry i in the proxy's compact form into buf,
// reusing its capacity.
//
//thinlint:hotpath
func encodeCompact(buf []byte, t *display.OpTape, i int, compressThreshold int) []byte {
	w := proto.WriterOver(buf)
	switch t.Kind(i) {
	case display.KindFill:
		r, color := t.FillAt(i)
		w.U8(cFillRect)
		w.I16(int16(r.X)).I16(int16(r.Y))
		w.U16(uint16(r.W)).U16(uint16(r.H))
		w.U8(color)
	case display.KindCopy:
		src, dx, dy := t.CopyAt(i)
		w.U8(cCopyArea)
		w.I16(int16(src.X)).I16(int16(src.Y))
		w.I16(int16(dx)).I16(int16(dy))
		w.U16(uint16(src.W)).U16(uint16(src.H))
	case display.KindBlit:
		x, y, img := t.BlitAt(i)
		data := img.Pix
		compressed := byte(0)
		if len(data) >= compressThreshold {
			if c := deflateBytes(data); len(c) < len(data) {
				data = c
				compressed = 1
			}
		}
		w.U8(cPutImage)
		w.I16(int16(x)).I16(int16(y))
		w.U16(uint16(img.W)).U16(uint16(img.H))
		w.U8(compressed)
		w.U32(uint32(len(data)))
		w.Raw(data)
	case display.KindText:
		x, y, text, color := t.TextAt(i)
		if len(text) > 255 {
			text = text[:255]
		}
		w.U8(cText)
		w.I16(int16(x)).I16(int16(y))
		w.U8(color)
		w.U8(uint8(len(text)))
		w.Raw(text)
	}
	return w.Bytes()
}

// fragment appends a compact message to w in framing, split into chunks
// of at most chunkBytes, and records each chunk's span.
//
//thinlint:hotpath
func fragment(w *proto.Writer, spans []proto.Span, compact []byte, kind string, chunkBytes int) []proto.Span {
	if len(compact)+1 <= chunkBytes {
		start := w.Len()
		w.U8(frWhole).Raw(compact)
		return append(spans, proto.Span{Start: start, End: w.Len(), Kind: kind})
	}
	for off := 0; off < len(compact); off += chunkBytes - 1 {
		end := off + chunkBytes - 1
		marker := byte(frChunk)
		if end >= len(compact) {
			end = len(compact)
			marker = frChunkEnd
		}
		start := w.Len()
		w.U8(marker).Raw(compact[off:end])
		spans = append(spans, proto.Span{Start: start, End: w.Len(), Kind: kind})
	}
	return spans
}

// DecodeInput implements proto.Server.
func (s *Server) DecodeInput(m proto.Message) ([]display.InputEvent, error) {
	return proto.DecodeWith(m, s.walkInput)
}

// ValidateInput implements proto.Server.
func (s *Server) ValidateInput(m proto.Message) (int, error) { return s.walkInput(m, nil) }

// walkInput is the one walk of an event pack, returning its event count;
// events are appended to sink when it is non-nil. Motion deltas apply
// against the stream state with or without a sink.
//
//thinlint:hotpath
func (s *Server) walkInput(m proto.Message, sink *[]display.InputEvent) (int, error) {
	if m.Channel != proto.Input {
		return 0, fmt.Errorf("%w: input decode of %v message", proto.ErrBadMessage, m.Channel) //thinlint:allow hotpath error path: runs only on a malformed event pack, never in steady state
	}
	r := proto.NewReader(m.Payload)
	if r.U8() != cEventPack {
		return 0, fmt.Errorf("%w: not an event pack", proto.ErrBadMessage) //thinlint:allow hotpath error path: runs only on a malformed event pack, never in steady state
	}
	n := int(r.U8())
	for i := 0; i < n; i++ {
		switch kind := r.U8(); kind {
		case iKey:
			v := r.U16()
			if sink != nil {
				*sink = append(*sink, display.KeyEvent{Down: v&0x8000 != 0, Code: v & 0x7FFF}) //thinlint:allow hotpath.box event sink: nil on the validate-only echo path
			}
		case iMotionRel:
			dx := int8(r.U8())
			dy := int8(r.U8())
			s.lastX += int(dx)
			s.lastY += int(dy)
			if sink != nil {
				*sink = append(*sink, display.MouseMove{X: s.lastX, Y: s.lastY}) //thinlint:allow hotpath.box event sink: nil on the validate-only echo path
			}
		case iMotionAbs:
			x, y := r.I16(), r.I16()
			s.lastX, s.lastY = int(x), int(y)
			if sink != nil {
				*sink = append(*sink, display.MouseMove{X: s.lastX, Y: s.lastY}) //thinlint:allow hotpath.box event sink: nil on the validate-only echo path
			}
		case iButton:
			flags := r.U8()
			if sink != nil {
				*sink = append(*sink, display.MouseButton{Down: flags&1 != 0, Button: flags >> 1}) //thinlint:allow hotpath.box event sink: nil on the validate-only echo path
			}
		default:
			return 0, fmt.Errorf("%w: unknown input kind %d", proto.ErrBadMessage, kind) //thinlint:allow hotpath error path: runs only on a malformed event pack, never in steady state
		}
	}
	if err := r.Err(); err != nil {
		return 0, err
	}
	return n, nil
}

// Client is the terminal-side proxy endpoint. A screenless client
// (NewScreenlessClient) reassembles, inflates and checks every message the
// same way but has no framebuffer and paints nothing.
type Client struct {
	cfg Config
	fb  *display.Framebuffer // nil for a screenless client

	partial []byte // chunk reassembly buffer

	lastX, lastY int
}

// NewClient builds the terminal-side endpoint.
func NewClient(cfg Config) *Client {
	if cfg.ScreenW <= 0 {
		cfg.ScreenW, cfg.ScreenH = display.TypicalScreenW, display.TypicalScreenH
	}
	return &Client{cfg: cfg, fb: display.NewFramebuffer(cfg.ScreenW, cfg.ScreenH)}
}

// NewScreenlessClient builds a terminal-side endpoint with no screen: it
// accepts and rejects exactly the messages a NewClient endpoint does, and
// its Framebuffer is nil.
func NewScreenlessClient(cfg Config) *Client { return &Client{cfg: cfg} }

// Name implements proto.Client.
func (c *Client) Name() string { return "lbx" }

// Framebuffer implements proto.Client; it is nil for a screenless client.
func (c *Client) Framebuffer() *display.Framebuffer { return c.fb }

// ResetSession implements proto.Client: a cleared screen, no partial
// chunk, and motion state back at the origin, keeping the framebuffer and
// reassembly allocations.
func (c *Client) ResetSession() {
	if c.fb != nil {
		c.fb.Reset()
	}
	c.partial = c.partial[:0]
	c.lastX, c.lastY = 0, 0
}

// Apply implements proto.Client: reassemble fragments, decode the compact
// message, render.
func (c *Client) Apply(m proto.Message) error {
	if len(m.Payload) == 0 {
		return proto.ErrTruncated
	}
	marker, body := m.Payload[0], m.Payload[1:]
	switch marker {
	case frWhole:
		return c.applyCompact(body)
	case frChunk:
		c.partial = append(c.partial, body...)
		return nil
	case frChunkEnd:
		// The compact message is consumed before Apply returns, so the
		// reassembly buffer is reused for the next fragmented one.
		full := append(c.partial, body...)
		c.partial = full[:0]
		return c.applyCompact(full)
	default:
		return fmt.Errorf("%w: unknown frame marker %#x", proto.ErrBadMessage, marker)
	}
}

func (c *Client) applyCompact(b []byte) error {
	r := proto.NewReader(b)
	switch op := r.U8(); op {
	case cFillRect:
		x, y := r.I16(), r.I16()
		w, h := r.U16(), r.U16()
		color := r.U8()
		if r.Err() != nil {
			return r.Err()
		}
		if c.fb != nil {
			c.fb.ApplyFill(display.Rect{X: int(x), Y: int(y), W: int(w), H: int(h)}, color)
		}
	case cCopyArea:
		sx, sy := r.I16(), r.I16()
		dx, dy := r.I16(), r.I16()
		w, h := r.U16(), r.U16()
		if r.Err() != nil {
			return r.Err()
		}
		if c.fb != nil {
			c.fb.ApplyCopy(display.Rect{X: int(sx), Y: int(sy), W: int(w), H: int(h)}, int(dx), int(dy))
		}
	case cPutImage:
		x, y := r.I16(), r.I16()
		w, h := int(r.U16()), int(r.U16())
		compressed := r.U8()
		n := int(r.U32())
		data := r.Raw(n)
		if r.Err() != nil {
			return r.Err()
		}
		if w == 0 || h == 0 {
			return fmt.Errorf("%w: image of size %dx%d", proto.ErrBadMessage, w, h)
		}
		if compressed == 1 {
			raw, err := inflateBytes(data, w*h)
			if err != nil {
				return err
			}
			data = raw
		}
		if len(data) != w*h {
			return fmt.Errorf("%w: image payload %d for %dx%d", proto.ErrBadMessage, len(data), w, h)
		}
		if c.fb != nil {
			c.fb.ApplyBlit(int(x), int(y), &display.Bitmap{W: w, H: h, Pix: data})
		}
	case cText:
		x, y := r.I16(), r.I16()
		color := r.U8()
		n := int(r.U8())
		text := r.Raw(n)
		if r.Err() != nil {
			return r.Err()
		}
		if c.fb != nil {
			c.fb.ApplyText(int(x), int(y), text, color)
		}
	default:
		return fmt.Errorf("%w: unknown compact op %d", proto.ErrBadMessage, op)
	}
	return nil
}

// EncodeInput implements proto.Client.
func (c *Client) EncodeInput(events []display.InputEvent) []proto.Message {
	return c.EncodeInputScratch(events, &proto.Scratch{})
}

// EncodeInputScratch implements proto.Client: events gathered in one flush
// become one event pack with delta-encoded motion.
//
//thinlint:hotpath
func (c *Client) EncodeInputScratch(events []display.InputEvent, sc *proto.Scratch) []proto.Message {
	if len(events) == 0 {
		return nil
	}
	if len(events) > 255 {
		events = events[:255]
	}
	w := proto.WriterOver(sc.Buf)
	w.U8(cEventPack)
	w.U8(uint8(len(events)))
	for _, ev := range events {
		switch e := ev.(type) {
		case display.KeyEvent:
			v := e.Code & 0x7FFF
			if e.Down {
				v |= 0x8000
			}
			w.U8(iKey).U16(v)
		case display.MouseMove:
			dx, dy := e.X-c.lastX, e.Y-c.lastY
			if dx >= -128 && dx <= 127 && dy >= -128 && dy <= 127 {
				w.U8(iMotionRel).U8(uint8(int8(dx))).U8(uint8(int8(dy)))
			} else {
				w.U8(iMotionAbs).I16(int16(e.X)).I16(int16(e.Y))
			}
			c.lastX, c.lastY = e.X, e.Y
		case display.MouseButton:
			flags := e.Button << 1
			if e.Down {
				flags |= 1
			}
			w.U8(iButton).U8(flags)
		default:
			panic(fmt.Sprintf("lbx: unsupported input event %T", ev))
		}
	}
	b := w.Bytes()
	sc.Buf = b
	sc.Msgs = append(sc.Msgs[:0], proto.Message{Channel: proto.Input, Kind: "EventPack", Payload: b})
	return sc.Msgs
}

// deflateBytes compresses with DEFLATE at the default level.
func deflateBytes(src []byte) []byte {
	var buf bytes.Buffer
	zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		panic(err) // only fails on invalid level
	}
	if _, err := zw.Write(src); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	if err := zw.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// inflateBytes decompresses, expecting exactly want bytes. want comes off
// the wire, so the up-front allocation is capped by DEFLATE's maximum
// expansion (1032:1): a claimed size beyond it can never inflate.
func inflateBytes(src []byte, want int) ([]byte, error) {
	zr := flate.NewReader(bytes.NewReader(src))
	defer zr.Close()
	out := make([]byte, 0, min(want, 1032*len(src)))
	buf := make([]byte, 4096)
	for {
		n, err := zr.Read(buf)
		out = append(out, buf[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("lbx: inflate: %w", err)
		}
		if len(out) > want {
			return nil, fmt.Errorf("%w: inflated beyond expected %d bytes", proto.ErrBadMessage, want)
		}
	}
	if len(out) != want {
		return nil, fmt.Errorf("%w: inflated %d bytes, want %d", proto.ErrBadMessage, len(out), want)
	}
	return out, nil
}

// Compile-time interface conformance.
var (
	_ proto.Server = (*Server)(nil)
	_ proto.Client = (*Client)(nil)
)
