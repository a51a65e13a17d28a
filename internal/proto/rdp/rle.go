package rdp

import (
	"fmt"

	"thinbench/internal/proto"
)

// RLE8 is the era-appropriate run-length bitmap codec: RDP compressed
// bitmap payloads with an RLE family long before any general-purpose
// compression was negotiated. Flat UI content (window bodies, menus,
// toolbars) compresses extremely well; photographic animation frames
// barely compress at all, which is why the bitmap *cache*, not the codec,
// is what tames animations.
//
// Format: a control byte C, then
//
//	C <= 0x7F: a run of C+1 copies of the next byte
//	C >= 0x80: C-0x7F literal bytes follow

// rleEncode compresses src.
func rleEncode(src []byte) []byte {
	out := make([]byte, 0, len(src)/4+16)
	i := 0
	for i < len(src) {
		// Measure the run starting at i.
		run := 1
		for i+run < len(src) && src[i+run] == src[i] && run < 128 {
			run++
		}
		if run >= 3 {
			out = append(out, byte(run-1), src[i])
			i += run
			continue
		}
		// Gather literals until the next run of >= 3, capped at the
		// control byte's maximum of 128 literals.
		start := i
		for i < len(src) && i-start < 128 {
			run = 1
			for i+run < len(src) && src[i+run] == src[i] && run < 3 {
				run++
			}
			if run >= 3 {
				break
			}
			i += run
		}
		if i-start > 128 {
			i = start + 128
		}
		n := i - start
		if n == 0 { // at a run boundary immediately
			continue
		}
		out = append(out, byte(0x7F+n))
		out = append(out, src[start:i]...)
	}
	return out
}

// rleDecode expands enc, which must decode to exactly want bytes, into
// dst. dst is either want bytes long or nil: a nil dst walks and checks
// the encoding without storing a pixel, which is how a screenless client
// validates a bitmap it will never paint. Bytes past want are counted but
// not stored, so an over-long encoding is reported only after the whole
// walk, exactly as for a full decode.
func rleDecode(dst, enc []byte, want int) error {
	n := 0
	i := 0
	for i < len(enc) {
		c := enc[i]
		i++
		if c <= 0x7F {
			if i >= len(enc) {
				return proto.ErrTruncated
			}
			v := enc[i]
			i++
			run := int(c) + 1
			if n+run <= len(dst) {
				fill := dst[n : n+run]
				for j := range fill {
					fill[j] = v
				}
			}
			n += run
		} else {
			k := int(c) - 0x7F
			if i+k > len(enc) {
				return proto.ErrTruncated
			}
			if n+k <= len(dst) {
				copy(dst[n:], enc[i:i+k])
			}
			n += k
			i += k
		}
	}
	if n != want {
		return fmt.Errorf("%w: RLE decoded %d bytes, want %d", proto.ErrBadMessage, n, want)
	}
	return nil
}
