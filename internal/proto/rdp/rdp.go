// Package rdp implements an RDP-like remote display protocol with the
// behavioral properties the paper attributes to TSE's Remote Display
// Protocol: high-level drawing orders with compact field encodings, many
// orders batched into a single PDU, RLE-compressed bitmap payloads, a
// glyph cache, coalesced input events, and — decisively for animated
// content — a client-side bitmap cache (1.5 MB LRU by default) driven by a
// server-side cache directory, so that repeated bitmaps cross the wire as
// tiny MemBlt ("swap bitmap") orders instead of pixel payloads.
//
// RDP's real wire format is unpublished (the paper notes reverse
// engineering it as ongoing work); this package is a behavioral equivalent
// with documented layouts, not a byte-compatible one.
package rdp

import (
	"fmt"
	"unicode/utf8"

	"thinbench/internal/bitmapcache"
	"thinbench/internal/display"
	"thinbench/internal/proto"
)

// Order types.
const (
	ordOpaqueRect  = 0x01
	ordScrBlt      = 0x02
	ordMemBlt      = 0x03
	ordCacheBitmap = 0x04
	ordCacheGlyph  = 0x05
	ordGlyphIndex  = 0x06
)

// pduHeaderSize models the fixed per-PDU framing cost (TPKT + X.224 + MCS +
// share control headers in real RDP).
const pduHeaderSize = 14

// Input event encodings.
const (
	inKey    = 0x01
	inMouse  = 0x02
	inButton = 0x03
)

// Config parameterizes the protocol endpoints.
type Config struct {
	// CacheBytes is the client bitmap cache capacity (paper: 1.5 MB).
	CacheBytes int64
	// CachePolicy selects LRU (the TSE client) or the loop-aware extension.
	CachePolicy bitmapcache.Policy
	// ScreenW, ScreenH size the client framebuffer.
	ScreenW, ScreenH int
	// MotionSample, when positive, caps mouse-motion events per input PDU:
	// the TSE client samples the pointer rather than forwarding every
	// device report, keeping at most this many evenly-spaced positions
	// (always including the final one). Zero keeps every event.
	MotionSample int
}

// DefaultConfig matches the paper's TSE client.
func DefaultConfig() Config {
	return Config{
		CacheBytes:  bitmapcache.DefaultCapacity,
		CachePolicy: bitmapcache.LRU,
		ScreenW:     display.TypicalScreenW,
		ScreenH:     display.TypicalScreenH,
	}
}

// Server encodes display updates into order PDUs, maintaining the
// authoritative model of the client's bitmap and glyph caches.
type Server struct {
	cfg Config

	cache     *bitmapcache.Cache
	slotOf    map[bitmapcache.Key]uint16
	freeSlots []uint16
	nextSlot  uint16

	glyphIdx  map[rune]uint16
	nextGlyph uint16
}

// NewServer builds the application-side endpoint.
func NewServer(cfg Config) *Server {
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = bitmapcache.DefaultCapacity
	}
	s := &Server{
		cfg:      cfg,
		cache:    bitmapcache.New(cfg.CacheBytes, cfg.CachePolicy),
		slotOf:   make(map[bitmapcache.Key]uint16),
		glyphIdx: make(map[rune]uint16),
	}
	s.cache.OnEvict = func(k bitmapcache.Key) {
		if slot, ok := s.slotOf[k]; ok {
			delete(s.slotOf, k)
			s.freeSlots = append(s.freeSlots, slot)
		}
	}
	return s
}

// Name implements proto.Server.
func (s *Server) Name() string { return "rdp" }

// ResetSession implements proto.Server: the server returns to its
// freshly constructed state — empty bitmap cache, virgin slot and glyph
// directories — while keeping every allocation, so a pooled codec's wire
// bytes match a brand-new server's exactly.
func (s *Server) ResetSession() {
	s.cache.Reset()
	clear(s.slotOf)
	s.freeSlots = s.freeSlots[:0]
	s.nextSlot = 0
	clear(s.glyphIdx)
	s.nextGlyph = 0
}

// CacheStats exposes the bitmap cache counters (Figure 6's metrics).
func (s *Server) CacheStats() bitmapcache.Stats { return s.cache.Stats() }

// Update implements proto.Server with proto.UpdateOps.
func (s *Server) Update(ops []display.Op) []proto.Message { return proto.UpdateOps(s, ops) }

// UpdateTape implements proto.Server: all operations of one screen update
// are encoded as orders inside a single PDU — the batching that gives RDP
// its small message counts and large average message size.
//
//thinlint:hotpath
func (s *Server) UpdateTape(t *display.OpTape, from, to int, sc *proto.Scratch) []proto.Message {
	if to <= from {
		return nil
	}
	w := proto.WriterOver(sc.Buf)
	w.Zero(pduHeaderSize)
	orders := 0
	for i := from; i < to; i++ {
		switch t.Kind(i) {
		case display.KindFill:
			r, color := t.FillAt(i)
			w.U8(ordOpaqueRect)
			w.I16(int16(r.X)).I16(int16(r.Y))
			w.U16(uint16(r.W)).U16(uint16(r.H))
			w.U8(color)
			orders++
		case display.KindCopy:
			src, dx, dy := t.CopyAt(i)
			w.U8(ordScrBlt)
			w.I16(int16(src.X)).I16(int16(src.Y))
			w.U16(uint16(src.W)).U16(uint16(src.H))
			w.I16(int16(dx)).I16(int16(dy))
			orders++
		case display.KindBlit:
			x, y, img := t.BlitAt(i)
			orders += s.encodeBitmap(&w, x, y, img)
		case display.KindText:
			x, y, text, color := t.TextAt(i)
			orders += s.encodeText(&w, x, y, text, color)
		}
	}
	b := w.Bytes()
	sc.Buf = b
	// Patch the PDU header: total length and order count.
	b[0] = byte(len(b))
	b[1] = byte(len(b) >> 8)
	b[2] = 0x02 // PDUTYPE_DATA / update
	b[4] = byte(orders)
	b[5] = byte(orders >> 8)
	sc.Msgs = append(sc.Msgs[:0], proto.Message{Channel: proto.Display, Kind: "UpdatePDU", Payload: b})
	return sc.Msgs
}

// encodeBitmap consults the cache directory: a hit costs one 11-byte
// MemBlt; a miss ships the RLE-compressed pixels in a CacheBitmap order,
// then draws with MemBlt.
func (s *Server) encodeBitmap(w *proto.Writer, x, y int, img *display.Bitmap) int {
	key := bitmapcache.Key(img.Hash())
	orders := 0
	if !s.cache.Fetch(key, int64(img.Bytes())) {
		// Miss. If the content is cacheable (it fits), assign a slot and
		// ship it as a cache fill; oversized content ships as a one-shot
		// (slot 0xFFFF means "draw immediately, do not retain").
		slot := uint16(0xFFFF)
		if s.cache.Contains(key) {
			slot = s.allocSlot(key)
		}
		enc := rleEncode(img.Pix)
		w.U8(ordCacheBitmap)
		w.U16(slot)
		w.U16(uint16(img.W)).U16(uint16(img.H))
		w.U32(uint32(len(enc)))
		w.Raw(enc)
		orders++
		if slot == 0xFFFF {
			// One-shot draw carries coordinates in a MemBlt against the
			// ephemeral slot.
			w.U8(ordMemBlt).U16(slot)
			w.I16(int16(x)).I16(int16(y))
			w.U16(uint16(img.W)).U16(uint16(img.H))
			return orders + 1
		}
	}
	slot, ok := s.slotOf[key]
	if !ok {
		slot = s.allocSlot(key)
	}
	w.U8(ordMemBlt).U16(slot)
	w.I16(int16(x)).I16(int16(y))
	w.U16(uint16(img.W)).U16(uint16(img.H))
	return orders + 1
}

func (s *Server) allocSlot(key bitmapcache.Key) uint16 {
	if slot, ok := s.slotOf[key]; ok {
		return slot
	}
	var slot uint16
	if n := len(s.freeSlots); n > 0 {
		slot = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
	} else {
		slot = s.nextSlot
		s.nextSlot++
		if s.nextSlot == 0xFFFF {
			// Slot space exhausted; recycle from zero. With a byte-capacity
			// cache this cannot collide with a live slot in practice.
			s.nextSlot = 0
		}
	}
	s.slotOf[key] = slot
	return slot
}

// encodeText caches glyphs on first use (13 bytes of 1-bpp rows each),
// then draws with compact glyph-index orders. The UTF-8 byte walk yields
// the same U+FFFD replacements a range loop over the string would, so no
// rune slice is materialized; the glyph count field is a byte, so the text
// caps at 255 runes as before.
func (s *Server) encodeText(w *proto.Writer, x, y int, text []byte, color byte) int {
	orders := 0
	n := display.CountRunes(text, 255)
	i := 0
	for off := 0; off < len(text) && i < n; i++ {
		r, size := utf8.DecodeRune(text[off:])
		off += size
		if _, ok := s.glyphIdx[r]; ok {
			continue
		}
		idx := s.nextGlyph
		s.nextGlyph++
		s.glyphIdx[r] = idx
		w.U8(ordCacheGlyph)
		w.U16(idx)
		w.U32(uint32(r))
		// Each 8-pixel glyph row packs into one byte.
		for yy := 0; yy < display.GlyphH; yy++ {
			w.U8(display.GlyphRowBits(r, yy))
		}
		orders++
	}
	w.U8(ordGlyphIndex)
	w.I16(int16(x)).I16(int16(y))
	w.U8(color)
	w.U8(uint8(n))
	i = 0
	for off := 0; off < len(text) && i < n; i++ {
		r, size := utf8.DecodeRune(text[off:])
		off += size
		w.U16(s.glyphIdx[r])
	}
	return orders + 1
}

// DecodeInput implements proto.Server.
func (s *Server) DecodeInput(m proto.Message) ([]display.InputEvent, error) {
	return proto.DecodeWith(m, s.walkInput)
}

// ValidateInput implements proto.Server.
func (s *Server) ValidateInput(m proto.Message) (int, error) { return s.walkInput(m, nil) }

// walkInput is the one structural walk of an input PDU, returning its
// event count; events are appended to sink when it is non-nil.
//
//thinlint:hotpath
func (s *Server) walkInput(m proto.Message, sink *[]display.InputEvent) (int, error) {
	if m.Channel != proto.Input {
		return 0, fmt.Errorf("%w: input decode of %v message", proto.ErrBadMessage, m.Channel) //thinlint:allow hotpath error path: runs only on a malformed input PDU, never in steady state
	}
	r := proto.NewReader(m.Payload)
	r.Skip(pduHeaderSize)
	n := int(r.U16())
	for i := 0; i < n; i++ {
		switch kind := r.U8(); kind {
		case inKey:
			flags := r.U8()
			code := r.U16()
			if sink != nil {
				*sink = append(*sink, display.KeyEvent{Down: flags&1 != 0, Code: code}) //thinlint:allow hotpath.box event sink: nil on the validate-only echo path
			}
		case inMouse:
			x, y := r.I16(), r.I16()
			if sink != nil {
				*sink = append(*sink, display.MouseMove{X: int(x), Y: int(y)}) //thinlint:allow hotpath.box event sink: nil on the validate-only echo path
			}
		case inButton:
			flags := r.U8()
			btn := r.U8()
			if sink != nil {
				*sink = append(*sink, display.MouseButton{Down: flags&1 != 0, Button: btn}) //thinlint:allow hotpath.box event sink: nil on the validate-only echo path
			}
		default:
			return 0, fmt.Errorf("%w: unknown input kind %d", proto.ErrBadMessage, kind) //thinlint:allow hotpath error path: runs only on a malformed input PDU, never in steady state
		}
	}
	if err := r.Err(); err != nil {
		return 0, err
	}
	return n, nil
}

// setupBytesTotal sums SetupMessages once at package init: a churning
// session pool calls SetupBytes on every admission, and rebuilding the
// whole negotiation exchange each time dominated login allocations.
var setupBytesTotal = func() int {
	total := 0
	for _, m := range SetupMessages() {
		total += m.Size()
	}
	return total
}()

// SetupBytes implements proto.Server.
func (s *Server) SetupBytes() int { return setupBytesTotal }

// SetupMessages builds the session negotiation exchange. Component sizes
// follow the TSE connection sequence: transport connect, basic settings
// exchange, licensing, capability sets, and — the bulk — the client's
// persistent bitmap cache key list and font/glyph negotiation. The total
// matches the paper's measured 45,328 bytes for TSE session setup.
func SetupMessages() []proto.Message {
	block := func(kind string, ch proto.Channel, n int) proto.Message {
		w := proto.NewWriter(n)
		w.U16(uint16(n)).U8(0x01).U8(0)
		w.Zero(n - 4)
		return proto.Message{Channel: ch, Kind: kind, Payload: w.Bytes()}
	}
	return []proto.Message{
		block("X224Connect", proto.Input, 19),
		block("X224Confirm", proto.Display, 11),
		block("MCSConnectInitial", proto.Input, 412),
		block("MCSConnectResponse", proto.Display, 333),
		block("SecurityExchange", proto.Input, 280),
		block("LicenseRequest", proto.Display, 2515),
		block("LicenseResponse", proto.Input, 1533),
		block("DemandActive+Caps", proto.Display, 1214),
		block("ConfirmActive+Caps", proto.Input, 1093),
		block("PersistentKeyList", proto.Input, 23330),
		block("FontList", proto.Input, 8012),
		block("FontMap", proto.Display, 6233),
		block("Synchronize+Control", proto.Display, 343),
	}
}

// Client decodes order PDUs, mirroring the server's cache protocol.
//
// A screenless client (NewScreenlessClient) runs the same walk — RLE
// decode, slot and glyph bookkeeping, MemBlt size checks, every error —
// but has no framebuffer: it paints nothing and keeps only each cached
// bitmap's size, not its pixels.
type Client struct {
	cfg    Config
	fb     *display.Framebuffer // nil for a screenless client
	slots  map[uint16]cachedBitmap
	glyphs map[uint16][display.GlyphH]byte // 1-bpp rows, one byte each
}

// cachedBitmap is one client bitmap-cache slot: its size, which MemBlt
// checks, and its pixels, which only a rendering client keeps.
type cachedBitmap struct {
	w, h int
	img  *display.Bitmap
}

// NewClient builds the terminal-side endpoint.
func NewClient(cfg Config) *Client {
	c := NewScreenlessClient(cfg)
	c.fb = display.NewFramebuffer(cfg.ScreenW, cfg.ScreenH)
	return c
}

// NewScreenlessClient builds a terminal-side endpoint with no screen: it
// accepts and rejects exactly the messages a NewClient endpoint does and
// tracks the same cache state, and its Framebuffer is nil.
func NewScreenlessClient(cfg Config) *Client {
	return &Client{
		cfg:    cfg,
		slots:  make(map[uint16]cachedBitmap),
		glyphs: make(map[uint16][display.GlyphH]byte),
	}
}

// Name implements proto.Client.
func (c *Client) Name() string { return "rdp" }

// ResetSession implements proto.Client: the client returns to its
// freshly constructed state — cleared screen, empty bitmap and glyph slot
// stores — retaining the framebuffer and map allocations.
func (c *Client) ResetSession() {
	if c.fb != nil {
		c.fb.Reset()
	}
	clear(c.slots)
	clear(c.glyphs)
}

// Framebuffer implements proto.Client; it is nil for a screenless client.
func (c *Client) Framebuffer() *display.Framebuffer { return c.fb }

// CachedBitmaps reports how many bitmap slots the client holds.
func (c *Client) CachedBitmaps() int { return len(c.slots) }

// CachedGlyphs reports how many glyph slots the client holds.
func (c *Client) CachedGlyphs() int { return len(c.glyphs) }

// Apply implements proto.Client.
func (c *Client) Apply(m proto.Message) error {
	if m.Channel != proto.Display {
		return fmt.Errorf("%w: display apply of %v message", proto.ErrBadMessage, m.Channel)
	}
	r := proto.NewReader(m.Payload)
	r.Skip(2) // length
	r.Skip(2) // type + pad
	n := int(r.U16())
	r.Skip(pduHeaderSize - 6)
	for i := 0; i < n; i++ {
		if err := c.applyOrder(r); err != nil {
			return err
		}
	}
	return r.Err()
}

func (c *Client) applyOrder(r *proto.Reader) error {
	switch typ := r.U8(); typ {
	case ordOpaqueRect:
		x, y := r.I16(), r.I16()
		w, h := r.U16(), r.U16()
		color := r.U8()
		if r.Err() != nil {
			return r.Err()
		}
		if c.fb != nil {
			c.fb.ApplyFill(display.Rect{X: int(x), Y: int(y), W: int(w), H: int(h)}, color)
		}
	case ordScrBlt:
		sx, sy := r.I16(), r.I16()
		w, h := r.U16(), r.U16()
		dx, dy := r.I16(), r.I16()
		if r.Err() != nil {
			return r.Err()
		}
		if c.fb != nil {
			c.fb.ApplyCopy(display.Rect{X: int(sx), Y: int(sy), W: int(w), H: int(h)}, int(dx), int(dy))
		}
	case ordCacheBitmap:
		slot := r.U16()
		w, h := int(r.U16()), int(r.U16())
		n := int(r.U32())
		enc := r.Raw(n)
		if r.Err() != nil {
			return r.Err()
		}
		if w == 0 || h == 0 {
			return fmt.Errorf("%w: CacheBitmap of size %dx%d", proto.ErrBadMessage, w, h)
		}
		// Only a rendering client materializes the pixels; a screenless
		// one walks the RLE stream for its errors alone. A run pair
		// expands to at most 128 bytes, so a size past 64 per encoded byte
		// cannot decode: it is walked without a destination too, which
		// returns the same error without allocating w·h bytes first.
		var img *display.Bitmap
		var pix []byte
		if c.fb != nil && w*h <= 64*len(enc) {
			img = display.NewBitmap(w, h)
			pix = img.Pix
		}
		if err := rleDecode(pix, enc, w*h); err != nil {
			return err
		}
		c.slots[slot] = cachedBitmap{w: w, h: h, img: img}
	case ordMemBlt:
		slot := r.U16()
		x, y := r.I16(), r.I16()
		w, h := r.U16(), r.U16()
		if r.Err() != nil {
			return r.Err()
		}
		cb, ok := c.slots[slot]
		if !ok {
			return fmt.Errorf("%w: MemBlt of unknown slot %d", proto.ErrBadMessage, slot)
		}
		if cb.w != int(w) || cb.h != int(h) {
			return fmt.Errorf("%w: MemBlt size %dx%d vs cached %dx%d", proto.ErrBadMessage, w, h, cb.w, cb.h)
		}
		if c.fb != nil {
			c.fb.ApplyBlit(int(x), int(y), cb.img)
		}
		if slot == 0xFFFF {
			delete(c.slots, slot) // one-shot: do not retain
		}
	case ordCacheGlyph:
		idx := r.U16()
		r.U32() // rune, informational
		var rows [display.GlyphH]byte
		for y := range rows {
			rows[y] = r.U8()
		}
		if r.Err() != nil {
			return r.Err()
		}
		c.glyphs[idx] = rows
	case ordGlyphIndex:
		x, y := r.I16(), r.I16()
		color := r.U8()
		n := int(r.U8())
		cx := int(x)
		for i := 0; i < n; i++ {
			idx := r.U16()
			rows, ok := c.glyphs[idx]
			if !ok {
				return fmt.Errorf("%w: glyph index %d unknown", proto.ErrBadMessage, idx)
			}
			if c.fb != nil {
				for gy, row := range rows {
					for gx := 0; gx < display.GlyphW; gx++ {
						if row>>uint(gx)&1 == 1 {
							c.fb.Set(cx+gx, int(y)+gy, color)
						}
					}
				}
			}
			cx += display.GlyphW
		}
		if r.Err() != nil {
			return r.Err()
		}
	default:
		return fmt.Errorf("%w: unknown order type %d", proto.ErrBadMessage, typ)
	}
	return nil
}

// EncodeInput implements proto.Client.
func (c *Client) EncodeInput(events []display.InputEvent) []proto.Message {
	return c.EncodeInputScratch(events, &proto.Scratch{})
}

// EncodeInputScratch implements proto.Client: all events gathered during
// one client flush interval are coalesced into a single input PDU with
// compact per-event encodings — the behavior behind RDP's 16x input byte
// advantage over X in the paper's workload table.
//
//thinlint:hotpath
func (c *Client) EncodeInputScratch(events []display.InputEvent, sc *proto.Scratch) []proto.Message {
	if len(events) == 0 {
		return nil
	}
	events = sampleMotion(events, c.cfg.MotionSample)
	w := proto.WriterOver(sc.Buf)
	w.Zero(pduHeaderSize)
	w.U16(uint16(len(events)))
	for _, ev := range events {
		switch e := ev.(type) {
		case display.KeyEvent:
			flags := uint8(0)
			if e.Down {
				flags = 1
			}
			w.U8(inKey).U8(flags).U16(e.Code)
		case display.MouseMove:
			w.U8(inMouse).I16(int16(e.X)).I16(int16(e.Y))
		case display.MouseButton:
			flags := uint8(0)
			if e.Down {
				flags = 1
			}
			w.U8(inButton).U8(flags).U8(e.Button)
		default:
			panic(fmt.Sprintf("rdp: unsupported input event %T", ev))
		}
	}
	b := w.Bytes()
	sc.Buf = b
	b[0] = byte(len(b))
	b[1] = byte(len(b) >> 8)
	b[2] = 0x03 // PDUTYPE_INPUT
	sc.Msgs = append(sc.Msgs[:0], proto.Message{Channel: proto.Input, Kind: "InputPDU", Payload: b})
	return sc.Msgs
}

// Compile-time interface conformance.
var (
	_ proto.Server = (*Server)(nil)
	_ proto.Client = (*Client)(nil)
)

// sampleMotion decimates mouse-motion events down to at most max samples,
// evenly spaced and always retaining the final position; non-motion events
// pass through untouched in order.
func sampleMotion(events []display.InputEvent, max int) []display.InputEvent {
	if max <= 0 {
		return events
	}
	motions := 0
	for _, ev := range events {
		if _, ok := ev.(display.MouseMove); ok {
			motions++
		}
	}
	if motions <= max {
		return events
	}
	out := make([]display.InputEvent, 0, len(events)-motions+max)
	kept, seen := 0, 0
	for _, ev := range events {
		if _, ok := ev.(display.MouseMove); !ok {
			out = append(out, ev)
			continue
		}
		seen++
		// Keep the sample when crossing each of the max evenly spaced
		// thresholds; the final motion always crosses the last one.
		if seen*max >= (kept+1)*motions {
			out = append(out, ev)
			kept++
		}
	}
	return out
}
