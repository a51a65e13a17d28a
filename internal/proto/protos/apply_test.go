package protos_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strconv"
	"testing"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/protos"
	"thinbench/internal/simclock"
)

// pair builds a rendering and a screenless client of the named protocol.
func pair(t testing.TB, name string) (render, bare proto.Client) {
	t.Helper()
	_, render, _, err := protos.New(name)
	if err != nil {
		t.Fatal(err)
	}
	_, bare, _, err = protos.NewScreenless(name)
	if err != nil {
		t.Fatal(err)
	}
	return render, bare
}

// cacheCounter is the client cache state a codec exposes (rdp's bitmap
// and glyph slots); it must match between the two clients.
type cacheCounter interface {
	CachedBitmaps() int
	CachedGlyphs() int
}

// applyBoth feeds m to both clients and fails unless they agree: both
// accept, or both reject with the same error class, and any exposed cache
// state matches afterwards.
func applyBoth(t testing.TB, render, bare proto.Client, m proto.Message, at string) error {
	t.Helper()
	errR, errS := render.Apply(m), bare.Apply(m)
	if (errR == nil) != (errS == nil) ||
		errors.Is(errR, proto.ErrTruncated) != errors.Is(errS, proto.ErrTruncated) ||
		errors.Is(errR, proto.ErrBadMessage) != errors.Is(errS, proto.ErrBadMessage) {
		t.Fatalf("%s: rendering client returned %v, screenless client %v", at, errR, errS)
	}
	if cr, ok := render.(cacheCounter); ok {
		cs := bare.(cacheCounter)
		if cr.CachedBitmaps() != cs.CachedBitmaps() || cr.CachedGlyphs() != cs.CachedGlyphs() {
			t.Fatalf("%s: cache state diverged: rendering %d bitmaps/%d glyphs, screenless %d/%d",
				at, cr.CachedBitmaps(), cr.CachedGlyphs(), cs.CachedBitmaps(), cs.CachedGlyphs())
		}
	}
	return errR
}

func TestScreenlessClientHasNoFramebuffer(t *testing.T) {
	for _, name := range protos.Names() {
		render, bare := pair(t, name)
		if render.Framebuffer() == nil {
			t.Errorf("%s: rendering client has no framebuffer", name)
		}
		if bare.Framebuffer() != nil {
			t.Errorf("%s: screenless client has a framebuffer", name)
		}
	}
	if _, _, _, err := protos.NewScreenless("telnet"); err == nil {
		t.Error("NewScreenless accepted an unknown protocol")
	}
	if err := protos.Check("telnet"); err == nil {
		t.Error("Check accepted an unknown protocol")
	}
}

// TestZeroSizeBitmapsRejected is the regression test for the decoders
// that once reached display.NewBitmap with a zero dimension and panicked:
// one malformed message must cost an ErrBadMessage, not the client.
func TestZeroSizeBitmapsRejected(t *testing.T) {
	le := binary.LittleEndian
	rdpPDU := func(orders int, body []byte) []byte {
		hdr := make([]byte, 14) // length, type, pad, order count, reserved
		le.PutUint16(hdr[4:], uint16(orders))
		return append(hdr, body...)
	}
	for _, c := range []struct {
		proto string
		name  string
		msg   []byte
	}{
		{"x", "PutImage height 0", func() []byte {
			b := []byte{72, 2, 24, 0}
			b = le.AppendUint32(b, 0x00400001)
			b = le.AppendUint32(b, 0x00400002)
			b = le.AppendUint16(b, 12336) // width
			b = le.AppendUint16(b, 0)     // height
			return append(b, 0, 0, 0, 0, 8, 0, 0, 0)
		}()},
		{"rdp", "CacheBitmap width 0", rdpPDU(1, []byte{
			0x04, 0, 0, // CacheBitmap, slot 0
			0, 0, 5, 0, // 0x5
			0, 0, 0, 0, // no RLE bytes
		})},
		{"lbx", "PutImage 0x0", []byte{
			0x10, 0x03, // whole frame, PutImage
			0, 0, 0, 0, // x, y
			0, 0, 0, 0, // 0x0
			0,          // uncompressed
			0, 0, 0, 0, // no pixels
		}},
		{"slim", "SET width 0", []byte{
			0x01,       // SET
			0, 0, 0, 0, // x, y
			0, 0, 7, 0, // 0x7
		}},
	} {
		t.Run(c.proto+"/"+c.name, func(t *testing.T) {
			render, bare := pair(t, c.proto)
			m := proto.Message{Channel: proto.Display, Kind: c.name, Payload: c.msg}
			if err := applyBoth(t, render, bare, m, c.name); !errors.Is(err, proto.ErrBadMessage) {
				t.Fatalf("got %v, want ErrBadMessage", err)
			}
		})
	}
}

// appendFramed appends messages in the fuzz stream format: a 4-byte
// little-endian length, then the payload.
func appendFramed(stream []byte, msgs []proto.Message) []byte {
	for _, m := range msgs {
		stream = binary.LittleEndian.AppendUint32(stream, uint32(len(m.Payload)))
		stream = append(stream, m.Payload...)
	}
	return stream
}

// encodedStream encodes 12 random op batches with the named protocol's
// server: the real traffic FuzzClientApply mutates, kept short so the
// fuzzer's minimizer stays quick.
func encodedStream(t testing.TB, name string, seed uint64) []byte {
	srv, _, _, err := protos.New(name)
	if err != nil {
		t.Fatal(err)
	}
	g := &opGen{r: simclock.NewRand(seed), w: display.TypicalScreenW, h: display.TypicalScreenH}
	var stream []byte
	for round := 0; round < 12; round++ {
		stream = appendFramed(stream, srv.Update(g.batch()))
	}
	return stream
}

// applyStream splits a framed stream into display messages and feeds each
// to a fresh rendering and screenless client pair through applyBoth. A
// length past the end of the stream takes what is left. clean also
// requires every message to be accepted.
func applyStream(t testing.TB, name string, stream []byte, clean bool) {
	t.Helper()
	render, bare := pair(t, name)
	for i := 0; len(stream) >= 4; i++ {
		n := int(min(binary.LittleEndian.Uint32(stream), uint32(len(stream)-4)))
		m := proto.Message{Channel: proto.Display, Kind: "stream", Payload: stream[4 : 4+n]}
		stream = stream[4+n:]
		if err := applyBoth(t, render, bare, m, name+" message "+strconv.Itoa(i)); err != nil && clean {
			t.Fatalf("%s message %d: %v", name, i, err)
		}
	}
}

// FuzzClientApply is the differential target for the screenless clients:
// every mutated message goes to a rendering and a screenless client of the
// same protocol, which must agree on accepting or rejecting it (with the
// same error class) and on the cache state it leaves. Neither may panic.
// The seeds are real encodes of random op tapes, so mutations start from
// well-formed traffic that reaches every order type and cache path.
func FuzzClientApply(f *testing.F) {
	names := protos.Names()
	for i, name := range names {
		for seed := uint64(1); seed <= 2; seed++ {
			f.Add(uint8(i), encodedStream(f, name, seed))
		}
	}
	f.Fuzz(func(t *testing.T, codec uint8, stream []byte) {
		applyStream(t, names[int(codec)%len(names)], stream, false)
	})
}

// TestScreenlessMatchesRendering is FuzzClientApply's deterministic
// floor: each codec's real traffic goes through both clients clean, where
// every message must be accepted, and then once per flipped low bit of
// each of its first 512 bytes, where the clients must agree.
func TestScreenlessMatchesRendering(t *testing.T) {
	for _, name := range protos.Names() {
		clean := encodedStream(t, name, 3)
		applyStream(t, name, clean, true)
		for i := range min(len(clean), 512) {
			corrupt := bytes.Clone(clean)
			corrupt[i] ^= 1
			applyStream(t, name, corrupt, false)
		}
	}
}
