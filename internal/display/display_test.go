package display

import (
	"testing"
	"testing/quick"
)

func TestBitmapBasics(t *testing.T) {
	b := NewBitmap(4, 3)
	if b.Bytes() != 12 {
		t.Fatalf("Bytes = %d, want 12", b.Bytes())
	}
	b.Set(1, 2, 9)
	if b.At(1, 2) != 9 {
		t.Fatal("Set/At round trip failed")
	}
	// Out-of-range accesses are safe.
	b.Set(99, 99, 1)
	if b.At(-1, 0) != 0 || b.At(99, 99) != 0 {
		t.Fatal("out-of-range At should return 0")
	}
}

func TestBitmapHashDistinguishesContent(t *testing.T) {
	a := NewBitmap(8, 8)
	b := NewBitmap(8, 8)
	if a.Hash() != b.Hash() {
		t.Fatal("identical bitmaps hash differently")
	}
	b.Set(3, 3, 1)
	if a.Hash() == b.Hash() {
		t.Fatal("different bitmaps hash identically")
	}
	// Same pixels, different shape must differ.
	c := NewBitmap(4, 16)
	if a.Hash() == c.Hash() {
		t.Fatal("shape not part of hash")
	}
}

func TestBitmapEqualAndClone(t *testing.T) {
	a := SyntheticFrame(1, 0, 16, 16)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.Set(0, 0, b.At(0, 0)+1)
	if a.Equal(b) {
		t.Fatal("mutated clone still equal")
	}
	if a.Equal(NewBitmap(16, 15)) {
		t.Fatal("different dims equal")
	}
}

func TestNewBitmapPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBitmap(0,5) did not panic")
		}
	}()
	NewBitmap(0, 5)
}

func TestRectUnion(t *testing.T) {
	a := Rect{0, 0, 10, 10}
	b := Rect{5, 5, 10, 10}
	u := a.Union(b)
	if u != (Rect{0, 0, 15, 15}) {
		t.Fatalf("union = %+v", u)
	}
	if got := (Rect{}).Union(a); got != a {
		t.Fatal("union with empty should return other")
	}
	if got := a.Union(Rect{}); got != a {
		t.Fatal("union with empty should return other")
	}
	if !(Rect{1, 1, 0, 5}).Empty() {
		t.Fatal("zero-width rect should be empty")
	}
}

func TestFillRect(t *testing.T) {
	fb := NewFramebuffer(10, 10)
	fb.Apply(FillRect{Rect: Rect{2, 2, 3, 3}, Color: 7})
	if fb.At(2, 2) != 7 || fb.At(4, 4) != 7 {
		t.Fatal("fill missed interior")
	}
	if fb.At(5, 5) != 0 || fb.At(1, 1) != 0 {
		t.Fatal("fill leaked outside")
	}
	if fb.Damage() != (Rect{2, 2, 3, 3}) {
		t.Fatalf("damage = %+v", fb.Damage())
	}
}

func TestCopyAreaOverlapping(t *testing.T) {
	fb := NewFramebuffer(10, 1)
	for x := 0; x < 10; x++ {
		fb.Set(x, 0, byte(x))
	}
	// Shift left by 2 with overlapping ranges (marquee scroll).
	fb.Apply(CopyArea{Src: Rect{2, 0, 8, 1}, DstX: 0, DstY: 0})
	for x := 0; x < 8; x++ {
		if fb.At(x, 0) != byte(x+2) {
			t.Fatalf("pixel %d = %d, want %d", x, fb.At(x, 0), x+2)
		}
	}
}

// TestClippedApplyMatchesPerPixelReference pins the clipped fill, copy and
// blit to the per-pixel definition they replaced — every pixel through Set
// (off-screen writes ignored) and At (off-screen reads 0) — on random
// rectangles that hang off every edge, including copies whose source lies
// partly off the screen.
func TestClippedApplyMatchesPerPixelReference(t *testing.T) {
	const w, h = 23, 17
	seed := uint64(1)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	coord := func(n int) int { return next(n+20) - 10 }
	got, want := NewFramebuffer(w, h), NewFramebuffer(w, h)
	for i := range got.Pix {
		got.Pix[i] = byte(i)
		want.Pix[i] = byte(i)
	}
	for round := 0; round < 2000; round++ {
		r := Rect{X: coord(w), Y: coord(h), W: next(w + 5), H: next(h + 5)}
		switch next(3) {
		case 0:
			c := byte(next(256))
			got.ApplyFill(r, c)
			for y := r.Y; y < r.Y+r.H; y++ {
				for x := r.X; x < r.X+r.W; x++ {
					want.Set(x, y, c)
				}
			}
		case 1:
			dx, dy := coord(w), coord(h)
			got.ApplyCopy(r, dx, dy)
			tmp := make([]byte, r.W*r.H)
			for y := 0; y < r.H; y++ {
				for x := 0; x < r.W; x++ {
					tmp[y*r.W+x] = want.At(r.X+x, r.Y+y)
				}
			}
			for y := 0; y < r.H; y++ {
				for x := 0; x < r.W; x++ {
					want.Set(dx+x, dy+y, tmp[y*r.W+x])
				}
			}
		default:
			img := NewBitmap(1+next(w+5), 1+next(h+5))
			for i := range img.Pix {
				img.Pix[i] = byte(next(256))
			}
			got.ApplyBlit(r.X, r.Y, img)
			for y := 0; y < img.H; y++ {
				for x := 0; x < img.W; x++ {
					want.Set(r.X+x, r.Y+y, img.At(x, y))
				}
			}
		}
		if !got.Bitmap.Equal(want.Bitmap) {
			t.Fatalf("round %d (%+v): clipped apply diverged from the per-pixel reference", round, r)
		}
	}
}

func TestPutBitmap(t *testing.T) {
	fb := NewFramebuffer(20, 20)
	img := SyntheticFrame(5, 0, 8, 8)
	fb.Apply(PutBitmap{X: 4, Y: 4, Img: img})
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if fb.At(4+x, 4+y) != img.At(x, y) {
				t.Fatalf("blit mismatch at %d,%d", x, y)
			}
		}
	}
}

func TestDrawTextDeterministic(t *testing.T) {
	fb1 := NewFramebuffer(100, 20)
	fb2 := NewFramebuffer(100, 20)
	fb1.Apply(DrawText{X: 0, Y: 0, Text: "hello", Color: 3})
	fb2.Apply(DrawText{X: 0, Y: 0, Text: "hello", Color: 3})
	if !fb1.Equal(fb2.Bitmap) {
		t.Fatal("identical text rendered differently")
	}
	fb3 := NewFramebuffer(100, 20)
	fb3.Apply(DrawText{X: 0, Y: 0, Text: "world", Color: 3})
	if fb1.Equal(fb3.Bitmap) {
		t.Fatal("different text rendered identically")
	}
}

func TestGlyphBitmapStable(t *testing.T) {
	a := GlyphMask('A')
	b := GlyphMask('A')
	if !a.Equal(b) {
		t.Fatal("glyph not deterministic")
	}
	c := GlyphMask('B')
	if a.Equal(c) {
		t.Fatal("distinct runes produced identical glyphs")
	}
	if a.W != GlyphW || a.H != GlyphH {
		t.Fatal("glyph cell size wrong")
	}
}

func TestFramebufferOpsCountAndDamageReset(t *testing.T) {
	fb := NewFramebuffer(10, 10)
	fb.Apply(FillRect{Rect: Rect{0, 0, 2, 2}, Color: 1})
	fb.Apply(FillRect{Rect: Rect{8, 8, 2, 2}, Color: 1})
	if fb.Ops() != 2 {
		t.Fatalf("Ops = %d, want 2", fb.Ops())
	}
	if fb.Damage() != (Rect{0, 0, 10, 10}) {
		t.Fatalf("damage union = %+v", fb.Damage())
	}
	fb.ResetDamage()
	if !fb.Damage().Empty() {
		t.Fatal("damage not reset")
	}
}

func TestSyntheticFrameProperties(t *testing.T) {
	// Same (seed, i) => identical; different i => different.
	a := SyntheticFrame(42, 3, 64, 48)
	b := SyntheticFrame(42, 3, 64, 48)
	c := SyntheticFrame(42, 4, 64, 48)
	if !a.Equal(b) {
		t.Fatal("synthetic frame not deterministic")
	}
	if a.Equal(c) {
		t.Fatal("distinct frames identical")
	}
	if a.Hash() == c.Hash() {
		t.Fatal("distinct frames hash-collide")
	}
}

func TestBannerAndMarqueeDimensions(t *testing.T) {
	bf := BannerFrame(0)
	if bf.W != 468 || bf.H != 60 {
		t.Fatalf("banner = %dx%d, want 468x60 (the paper's ad size)", bf.W, bf.H)
	}
	mf := MarqueeFrame(5, 10)
	if mf.W != MarqueeW || mf.H != MarqueeH {
		t.Fatal("marquee dimensions wrong")
	}
	// Looping: position i and i+period are identical.
	if !MarqueeFrame(3, 10).Equal(MarqueeFrame(13, 10)) {
		t.Fatal("marquee does not loop with its period")
	}
}

// Property: PutBitmap followed by readback returns the same pixels for any
// in-range placement.
func TestBlitRoundTripProperty(t *testing.T) {
	f := func(seed uint64, px, py uint8) bool {
		fb := NewFramebuffer(64, 64)
		img := SyntheticFrame(seed, 0, 16, 16)
		x, y := int(px)%48, int(py)%48
		fb.Apply(PutBitmap{X: x, Y: y, Img: img})
		for yy := 0; yy < 16; yy++ {
			for xx := 0; xx < 16; xx++ {
				if fb.At(x+xx, y+yy) != img.At(xx, yy) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInputEventNames(t *testing.T) {
	// The interface methods exist to seal the type set; exercise them.
	events := []InputEvent{KeyEvent{Down: true, Code: 30}, MouseMove{X: 1, Y: 2}, MouseButton{Down: true, Button: 1}}
	names := map[string]bool{}
	for _, e := range events {
		names[e.inputName()] = true
	}
	if len(names) != 3 {
		t.Fatalf("input event names = %v", names)
	}
}
