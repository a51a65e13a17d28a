// Package lbx implements a Low-Bandwidth-X-like protocol: a transcoding
// proxy over the xwire protocol that re-encodes verbose X requests into
// compact forms, delta-encodes input events (motion events shrink from 32
// bytes to 3), compresses large pixel payloads with DEFLATE, and splits
// the result into small framing chunks.
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

// Server is the application-side proxy endpoint: it produces X requests via
// an embedded xwire server, transcodes them compactly, and fragments them.
type Server struct {
	cfg Config
	x   *xwire.Server

	// Motion delta state for input decoding.
	lastX, lastY int
}

// NewServer builds the application-side endpoint.
func NewServer(cfg Config) *Server {
	if cfg.ChunkBytes <= 8 {
		cfg.ChunkBytes = 256
	}
	return &Server{cfg: cfg, x: xwire.NewServer()}
}

// Name implements proto.Server.
func (s *Server) Name() string { return "lbx" }

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

// Update implements proto.Server: ops become X requests, each transcoded
// and (if large) fragmented.
func (s *Server) Update(ops []display.Op) []proto.Message {
	var out []proto.Message
	for _, xm := range s.x.Update(ops) {
		op, err := xwire.DecodeRequest(xm.Payload)
		if err != nil {
			panic(fmt.Sprintf("lbx: transcoding own xwire output failed: %v", err))
		}
		compact := encodeCompact(op, s.cfg.CompressThreshold)
		out = append(out, fragment(compact, xm.Kind, s.cfg.ChunkBytes)...)
	}
	return out
}

// encodeCompact re-encodes one drawing op into the proxy's compact form.
func encodeCompact(op display.Op, compressThreshold int) []byte {
	w := proto.NewWriter(16)
	switch o := op.(type) {
	case display.FillRect:
		w.U8(cFillRect)
		w.I16(int16(o.Rect.X)).I16(int16(o.Rect.Y))
		w.U16(uint16(o.Rect.W)).U16(uint16(o.Rect.H))
		w.U8(o.Color)
	case display.CopyArea:
		w.U8(cCopyArea)
		w.I16(int16(o.Src.X)).I16(int16(o.Src.Y))
		w.I16(int16(o.DstX)).I16(int16(o.DstY))
		w.U16(uint16(o.Src.W)).U16(uint16(o.Src.H))
	case display.PutBitmap:
		data := o.Img.Pix
		compressed := byte(0)
		if len(data) >= compressThreshold {
			if c := deflateBytes(data); len(c) < len(data) {
				data = c
				compressed = 1
			}
		}
		w.U8(cPutImage)
		w.I16(int16(o.X)).I16(int16(o.Y))
		w.U16(uint16(o.Img.W)).U16(uint16(o.Img.H))
		w.U8(compressed)
		w.U32(uint32(len(data)))
		w.Raw(data)
	case display.DrawText:
		if len(o.Text) > 255 {
			o.Text = o.Text[:255]
		}
		w.U8(cText)
		w.I16(int16(o.X)).I16(int16(o.Y))
		w.U8(o.Color)
		w.U8(uint8(len(o.Text)))
		w.Raw([]byte(o.Text))
	default:
		panic(fmt.Sprintf("lbx: unsupported op %T", op))
	}
	return w.Bytes()
}

// fragment wraps a compact message in framing, splitting it into chunks.
func fragment(compact []byte, kind string, chunkBytes int) []proto.Message {
	if len(compact)+1 <= chunkBytes {
		payload := append([]byte{frWhole}, compact...)
		return []proto.Message{{Channel: proto.Display, Kind: kind, Payload: payload}}
	}
	var out []proto.Message
	for off := 0; off < len(compact); off += chunkBytes - 1 {
		end := off + chunkBytes - 1
		marker := byte(frChunk)
		if end >= len(compact) {
			end = len(compact)
			marker = frChunkEnd
		}
		payload := append([]byte{marker}, compact[off:end]...)
		out = append(out, proto.Message{Channel: proto.Display, Kind: kind, Payload: payload})
	}
	return out
}

// DecodeInput implements proto.Server: unpack an event pack, applying
// motion deltas against the stream state.
func (s *Server) DecodeInput(m proto.Message) ([]display.InputEvent, error) {
	if m.Channel != proto.Input {
		return nil, fmt.Errorf("%w: input decode of %v message", proto.ErrBadMessage, m.Channel)
	}
	r := proto.NewReader(m.Payload)
	if r.U8() != cEventPack {
		return nil, fmt.Errorf("%w: not an event pack", proto.ErrBadMessage)
	}
	n := int(r.U8())
	events := make([]display.InputEvent, 0, n)
	for i := 0; i < n; i++ {
		switch kind := r.U8(); kind {
		case iKey:
			v := r.U16()
			events = append(events, display.KeyEvent{Down: v&0x8000 != 0, Code: v & 0x7FFF})
		case iMotionRel:
			dx := int8(r.U8())
			dy := int8(r.U8())
			s.lastX += int(dx)
			s.lastY += int(dy)
			events = append(events, display.MouseMove{X: s.lastX, Y: s.lastY})
		case iMotionAbs:
			x, y := r.I16(), r.I16()
			s.lastX, s.lastY = int(x), int(y)
			events = append(events, display.MouseMove{X: s.lastX, Y: s.lastY})
		case iButton:
			flags := r.U8()
			events = append(events, display.MouseButton{Down: flags&1 != 0, Button: flags >> 1})
		default:
			return nil, fmt.Errorf("%w: unknown input kind %d", proto.ErrBadMessage, kind)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return events, nil
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

// EncodeInput implements proto.Client: events gathered in one flush become
// one event pack with delta-encoded motion.
func (c *Client) EncodeInput(events []display.InputEvent) []proto.Message {
	if len(events) == 0 {
		return nil
	}
	if len(events) > 255 {
		events = events[:255]
	}
	w := proto.NewWriter(2 + len(events)*3)
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
	return []proto.Message{{Channel: proto.Input, Kind: "EventPack", Payload: w.Bytes()}}
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
