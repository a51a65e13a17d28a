// Package display models the graphical substrate shared by every remote
// display protocol in the reproduction: bitmaps, drawing operations, a
// software framebuffer that actually renders them, and deterministic
// synthetic content generators (animation frames, banner ads, ticker
// strips) for the paper's workloads.
//
// Both the server and the client render into framebuffers, so integration
// tests can assert that a protocol round-trip reproduces the server's
// pixels exactly.
package display

import (
	"fmt"
	"hash/fnv"
	"unicode/utf8"
)

// Bitmap is an 8-bit-per-pixel image (the paper's testbed era color depth).
type Bitmap struct {
	W, H int
	Pix  []byte // len W*H, row-major
}

// NewBitmap allocates a zeroed bitmap.
func NewBitmap(w, h int) *Bitmap {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("display: invalid bitmap size %dx%d", w, h))
	}
	return &Bitmap{W: w, H: h, Pix: make([]byte, w*h)}
}

// Bytes reports the raw pixel payload size.
func (b *Bitmap) Bytes() int { return len(b.Pix) }

// Hash returns a content digest used as the bitmap-cache key.
func (b *Bitmap) Hash() uint64 {
	h := fnv.New64a()
	var dims [8]byte
	dims[0], dims[1] = byte(b.W), byte(b.W>>8)
	dims[2], dims[3] = byte(b.H), byte(b.H>>8)
	h.Write(dims[:4])
	h.Write(b.Pix)
	return h.Sum64()
}

// At reads pixel (x, y); out-of-range reads return 0.
func (b *Bitmap) At(x, y int) byte {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return 0
	}
	return b.Pix[y*b.W+x]
}

// Set writes pixel (x, y); out-of-range writes are ignored.
func (b *Bitmap) Set(x, y int, v byte) {
	if x < 0 || y < 0 || x >= b.W || y >= b.H {
		return
	}
	b.Pix[y*b.W+x] = v
}

// Equal reports whether two bitmaps have identical dimensions and pixels.
func (b *Bitmap) Equal(o *Bitmap) bool {
	if b.W != o.W || b.H != o.H {
		return false
	}
	for i := range b.Pix {
		if b.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

// Clone deep-copies the bitmap.
func (b *Bitmap) Clone() *Bitmap {
	n := NewBitmap(b.W, b.H)
	copy(n.Pix, b.Pix)
	return n
}

// Rect is an axis-aligned rectangle.
type Rect struct {
	X, Y, W, H int
}

// Empty reports whether the rectangle covers no pixels.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }

// Union returns the bounding rectangle of r and o.
func (r Rect) Union(o Rect) Rect {
	if r.Empty() {
		return o
	}
	if o.Empty() {
		return r
	}
	x0, y0 := min(r.X, o.X), min(r.Y, o.Y)
	x1 := max(r.X+r.W, o.X+o.W)
	y1 := max(r.Y+r.H, o.Y+o.H)
	return Rect{x0, y0, x1 - x0, y1 - y0}
}

// Op is a display-channel drawing operation, the shared vocabulary that
// each protocol (RDP-like, X-like, LBX) encodes in its own wire format.
type Op interface {
	// Bounds reports the damaged region.
	Bounds() Rect
	opName() string
}

// FillRect paints a solid rectangle.
type FillRect struct {
	Rect  Rect
	Color byte
}

// Bounds implements Op.
func (o FillRect) Bounds() Rect   { return o.Rect }
func (o FillRect) opName() string { return "FillRect" }

// CopyArea copies a rectangle within the framebuffer (scrolling).
type CopyArea struct {
	Src  Rect
	DstX int
	DstY int
}

// Bounds implements Op.
func (o CopyArea) Bounds() Rect   { return Rect{o.DstX, o.DstY, o.Src.W, o.Src.H} }
func (o CopyArea) opName() string { return "CopyArea" }

// PutBitmap blits pixel data (the expensive operation every protocol must
// either ship raw, compress, or cache).
type PutBitmap struct {
	X, Y int
	Img  *Bitmap
}

// Bounds implements Op.
func (o PutBitmap) Bounds() Rect   { return Rect{o.X, o.Y, o.Img.W, o.Img.H} }
func (o PutBitmap) opName() string { return "PutBitmap" }

// DrawText renders a string with the built-in cell font.
type DrawText struct {
	X, Y  int
	Text  string
	Color byte
}

// Bounds implements Op.
func (o DrawText) Bounds() Rect {
	return Rect{o.X, o.Y, len(o.Text) * GlyphW, GlyphH}
}
func (o DrawText) opName() string { return "DrawText" }

// Glyph cell dimensions for the synthetic fixed-width font.
const (
	GlyphW = 8
	GlyphH = 13
)

// GlyphMask deterministically synthesizes the 1-bit coverage mask for a
// rune: a fixed-width cell whose on-pixels (value 1) derive from the code
// point, standing in for a real font rasterizer. Identical runes always
// produce identical masks, which is what glyph caches exploit; text color
// is applied at draw time, independent of the mask.
func GlyphMask(r rune) *Bitmap {
	b := NewBitmap(GlyphW, GlyphH)
	seed := uint64(r)*0x9e3779b97f4a7c15 + 0x243f6a8885a308d3
	for y := 0; y < GlyphH; y++ {
		rowBits := seed >> (uint(y%8) * 7)
		for x := 0; x < GlyphW; x++ {
			if rowBits>>(uint(x))&1 == 1 {
				b.Set(x, y, 1)
			}
		}
	}
	return b
}

// Framebuffer is a renderable screen.
type Framebuffer struct {
	*Bitmap
	damage Rect
	ops    int64
	// copyBuf is the reusable staging buffer for overlapping copies, so a
	// steady-state scroll renders without allocating.
	copyBuf []byte
}

// NewFramebuffer allocates a screen of the given size.
func NewFramebuffer(w, h int) *Framebuffer {
	return &Framebuffer{Bitmap: NewBitmap(w, h)}
}

// Reset returns the framebuffer to its freshly allocated state — every
// pixel zero, no damage, op counter cleared — retaining the pixel and
// copy-staging allocations, so a session pool can recycle a client's
// screen without reallocating it.
func (fb *Framebuffer) Reset() {
	clear(fb.Pix)
	fb.damage = Rect{}
	fb.ops = 0
}

// Ops reports how many operations have been applied.
func (fb *Framebuffer) Ops() int64 { return fb.ops }

// Damage reports the accumulated damaged region since the last ResetDamage.
func (fb *Framebuffer) Damage() Rect { return fb.damage }

// ResetDamage clears damage tracking.
func (fb *Framebuffer) ResetDamage() { fb.damage = Rect{} }

// Apply renders a boxed operation into the framebuffer. The concrete
// ApplyFill/ApplyCopy/ApplyBlit/ApplyText forms render the same pixels
// without the interface dispatch; hot paths use those (or ApplyTape)
// directly.
func (fb *Framebuffer) Apply(op Op) {
	switch o := op.(type) {
	case FillRect:
		fb.ApplyFill(o.Rect, o.Color)
	case CopyArea:
		fb.ApplyCopy(o.Src, o.DstX, o.DstY)
	case PutBitmap:
		fb.ApplyBlit(o.X, o.Y, o.Img)
	case DrawText:
		fb.ApplyTextString(o.X, o.Y, o.Text, o.Color)
	default:
		panic(fmt.Sprintf("display: unknown op %T", op))
	}
}

// ApplyFill renders a solid rectangle. Pixels off the screen are
// ignored, so only the on-screen part of r is walked: a 65535×65535 fill
// from a hostile peer costs one screen, not four billion bounds checks.
func (fb *Framebuffer) ApplyFill(r Rect, color byte) {
	fb.ops++
	fb.damage = fb.damage.Union(r)
	c := fb.onScreen(r)
	for y := c.Y; y < c.Y+c.H; y++ {
		row := fb.Pix[y*fb.W+c.X : y*fb.W+c.X+c.W]
		for i := range row {
			row[i] = color
		}
	}
}

// ApplyCopy renders an on-screen copy (scrolling), staging through a
// reusable buffer so overlapping regions behave. Only destination pixels
// on the screen are written, so only their sources are staged; a source
// pixel off the screen reads as 0, as At does.
func (fb *Framebuffer) ApplyCopy(src Rect, dstX, dstY int) {
	fb.ops++
	fb.damage = fb.damage.Union(Rect{dstX, dstY, src.W, src.H})
	d := fb.onScreen(Rect{dstX, dstY, src.W, src.H})
	n := d.W * d.H
	if n == 0 {
		return
	}
	if cap(fb.copyBuf) < n {
		fb.copyBuf = make([]byte, n)
	}
	tmp := fb.copyBuf[:n]
	sx, sy := src.X+d.X-dstX, src.Y+d.Y-dstY
	for y := 0; y < d.H; y++ {
		for x := 0; x < d.W; x++ {
			tmp[y*d.W+x] = fb.At(sx+x, sy+y)
		}
	}
	for y := 0; y < d.H; y++ {
		copy(fb.Pix[(d.Y+y)*fb.W+d.X:], tmp[y*d.W:(y+1)*d.W])
	}
}

// ApplyBlit renders bitmap pixels at (x, y), row by row over the part of
// the bitmap that lands on the screen.
func (fb *Framebuffer) ApplyBlit(x, y int, img *Bitmap) {
	fb.ops++
	fb.damage = fb.damage.Union(Rect{x, y, img.W, img.H})
	d := fb.onScreen(Rect{x, y, img.W, img.H})
	for yy := 0; yy < d.H; yy++ {
		off := (d.Y-y+yy)*img.W + d.X - x
		copy(fb.Pix[(d.Y+yy)*fb.W+d.X:], img.Pix[off:off+d.W])
	}
}

// onScreen clips r to the framebuffer; the result is empty (zero W or H)
// when r misses the screen entirely.
func (fb *Framebuffer) onScreen(r Rect) Rect {
	x0, y0 := max(r.X, 0), max(r.Y, 0)
	x1, y1 := min(r.X+r.W, fb.W), min(r.Y+r.H, fb.H)
	if x1 <= x0 || y1 <= y0 {
		return Rect{}
	}
	return Rect{x0, y0, x1 - x0, y1 - y0}
}

// ApplyText renders UTF-8 text bytes with the cell font, rasterizing glyph
// rows via GlyphRowBits so no mask bitmap is allocated.
func (fb *Framebuffer) ApplyText(x, y int, text []byte, color byte) {
	fb.ops++
	fb.damage = fb.damage.Union(Rect{x, y, len(text) * GlyphW, GlyphH})
	fb.drawText(x, y, text, "", color)
}

// ApplyTextString is ApplyText for a string, with identical damage
// accounting and pixels.
func (fb *Framebuffer) ApplyTextString(x, y int, s string, color byte) {
	fb.ops++
	fb.damage = fb.damage.Union(Rect{x, y, len(s) * GlyphW, GlyphH})
	fb.drawText(x, y, nil, s, color)
}

// drawText rasterizes whichever of text/s is set (range over a string and
// a utf8.DecodeRune walk over its bytes yield identical rune sequences).
func (fb *Framebuffer) drawText(x, y int, text []byte, s string, color byte) {
	cx := x
	blit := func(r rune) {
		for yy := 0; yy < GlyphH; yy++ {
			row := GlyphRowBits(r, yy)
			for xx := 0; xx < GlyphW; xx++ {
				if row>>uint(xx)&1 == 1 {
					fb.Set(cx+xx, y+yy, color)
				}
			}
		}
		cx += GlyphW
	}
	if text != nil {
		for off := 0; off < len(text); {
			r, size := utf8.DecodeRune(text[off:])
			off += size
			blit(r)
		}
		return
	}
	for _, r := range s {
		blit(r)
	}
}

// ApplyTape renders tape entries [from, to) through the concrete apply
// forms — the devirtualized equivalent of applying each boxed op.
func (fb *Framebuffer) ApplyTape(t *OpTape, from, to int) {
	for i := from; i < to; i++ {
		switch t.Kind(i) {
		case KindFill:
			r, c := t.FillAt(i)
			fb.ApplyFill(r, c)
		case KindCopy:
			src, dx, dy := t.CopyAt(i)
			fb.ApplyCopy(src, dx, dy)
		case KindText:
			x, y, s, c := t.TextAt(i)
			fb.ApplyText(x, y, s, c)
		case KindBlit:
			x, y, img := t.BlitAt(i)
			fb.ApplyBlit(x, y, img)
		}
	}
}

// InputEvent is an input-channel event.
type InputEvent interface {
	inputName() string
}

// KeyEvent is a key press or release.
type KeyEvent struct {
	Down bool
	Code uint16
}

func (KeyEvent) inputName() string { return "Key" }

// MouseMove reports pointer motion.
type MouseMove struct {
	X, Y int
}

func (MouseMove) inputName() string { return "MouseMove" }

// MouseButton is a button press or release.
type MouseButton struct {
	Down   bool
	Button uint8
}

func (MouseButton) inputName() string { return "MouseButton" }
