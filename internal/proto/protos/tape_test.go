package protos_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"os"
	"reflect"
	"strings"
	"testing"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/protos"
	"thinbench/internal/simclock"
)

// opGen draws randomized display-op streams: every op kind, geometry
// hanging off the screen edges, multi-byte text, and a bitmap pool reused
// across rounds so cache-bearing protocols exercise hits as well as misses.
type opGen struct {
	r    *simclock.Rand
	w, h int
	imgs []*display.Bitmap
}

func (g *opGen) bitmap() *display.Bitmap {
	if len(g.imgs) > 0 && g.r.Intn(2) == 0 {
		return g.imgs[g.r.Intn(len(g.imgs))]
	}
	img := display.NewBitmap(1+g.r.Intn(24), 1+g.r.Intn(16))
	for i := range img.Pix {
		img.Pix[i] = byte(g.r.Uint64())
	}
	g.imgs = append(g.imgs, img)
	return img
}

func (g *opGen) rect() display.Rect {
	return display.Rect{X: g.r.Intn(g.w), Y: g.r.Intn(g.h), W: 1 + g.r.Intn(64), H: 1 + g.r.Intn(32)}
}

// tapeAlphabet includes multi-byte runes so the tape's UTF-8 arena is
// exercised, not just ASCII.
var tapeAlphabet = []rune("abcdefghijklmnopqrstuvwxyz0123456789 éλ→")

func (g *opGen) op() display.Op {
	switch g.r.Intn(4) {
	case 0:
		return display.FillRect{Rect: g.rect(), Color: byte(g.r.Intn(256))}
	case 1:
		return display.CopyArea{Src: g.rect(), DstX: g.r.Intn(g.w), DstY: g.r.Intn(g.h)}
	case 2:
		s := make([]rune, 1+g.r.Intn(12))
		for i := range s {
			s[i] = tapeAlphabet[g.r.Intn(len(tapeAlphabet))]
		}
		return display.DrawText{X: g.r.Intn(g.w), Y: g.r.Intn(g.h), Text: string(s), Color: byte(g.r.Intn(256))}
	default:
		return display.PutBitmap{X: g.r.Intn(g.w), Y: g.r.Intn(g.h), Img: g.bitmap()}
	}
}

func (g *opGen) batch() []display.Op {
	ops := make([]display.Op, 1+g.r.Intn(6))
	for i := range ops {
		ops[i] = g.op()
	}
	return ops
}

// inGen draws randomized input batches: every event kind, key codes past
// a byte, and pointer positions both on screen and outside int16.
func inGen(r *simclock.Rand) []display.InputEvent {
	evs := make([]display.InputEvent, 1+r.Intn(8))
	for i := range evs {
		switch r.Intn(3) {
		case 0:
			evs[i] = display.KeyEvent{Down: r.Intn(2) == 0, Code: uint16(r.Intn(1 << 16))}
		case 1:
			if r.Intn(4) == 0 {
				evs[i] = display.MouseMove{X: r.Intn(160000) - 80000, Y: r.Intn(160000) - 80000}
			} else {
				evs[i] = display.MouseMove{X: r.Intn(display.TypicalScreenW), Y: r.Intn(display.TypicalScreenH)}
			}
		default:
			evs[i] = display.MouseButton{Down: r.Intn(2) == 0, Button: uint8(r.Intn(8))}
		}
	}
	return evs
}

// edgeBatches are the hand-picked display batches the random streams do
// not reach: text past the 255-byte and 255-rune caps (cut mid-rune for
// the byte-capped codecs), bitmaps that make lbx deflate and fragment or
// fragment raw, geometry outside int16, and an empty update.
func edgeBatches() [][]display.Op {
	long := strings.Repeat("abcdefghij", 30)
	wide := strings.Repeat("é", 200)
	flat := display.NewBitmap(128, 96)
	for i := range flat.Pix {
		flat.Pix[i] = byte(i / 97 % 3)
	}
	gradient := display.NewBitmap(200, 100)
	for y := 0; y < gradient.H; y++ {
		for x := 0; x < gradient.W; x++ {
			gradient.Set(x, y, byte(x*y/7))
		}
	}
	noise := display.NewBitmap(40, 40)
	r := simclock.NewRand(99)
	for i := range noise.Pix {
		noise.Pix[i] = byte(r.Uint64())
	}
	far := display.Rect{X: 70000, Y: -40000, W: 64, H: 32}
	return [][]display.Op{
		{display.DrawText{X: 10, Y: 20, Text: long, Color: 7}},
		{display.DrawText{X: 0, Y: 300, Text: wide, Color: 9}, display.DrawText{X: 5, Y: 5, Text: "\xff\xfe ok", Color: 3}},
		{display.PutBitmap{X: 30, Y: 40, Img: flat}},
		{display.PutBitmap{X: 300, Y: 200, Img: gradient}, display.PutBitmap{X: 10, Y: 500, Img: noise}},
		{display.PutBitmap{X: 600, Y: 0, Img: flat}, display.FillRect{Rect: display.Rect{X: 5, Y: 5, W: 70000, H: 3}, Color: 2}},
		{display.FillRect{Rect: far, Color: 4}, display.CopyArea{Src: display.Rect{X: -33000, Y: 5, W: 40, H: 40}, DstX: 40000, DstY: 10}},
		{display.DrawText{X: 1<<17 + 5, Y: -70000, Text: "far", Color: 1}, display.PutBitmap{X: -70000, Y: 100000, Img: noise}},
		{display.CopyArea{Src: display.Rect{X: 0, Y: 0, W: 300, H: 200}, DstX: 20, DstY: 30}},
		{},
	}
}

// wireDigest summarizes a message stream: message count, byte total, and
// a SHA-256 over every message's channel, kind and payload in order (and,
// for the input direction, every decoded event).
type wireDigest struct {
	msgs, bytes int
	h           hash.Hash
}

func newWireDigest() *wireDigest { return &wireDigest{h: sha256.New()} }

func (d *wireDigest) add(m proto.Message) {
	d.msgs++
	d.bytes += m.Size()
	var hdr [9]byte
	hdr[0] = byte(m.Channel)
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(m.Kind)))
	binary.LittleEndian.PutUint32(hdr[5:], uint32(len(m.Payload)))
	d.h.Write(hdr[:])
	d.h.Write([]byte(m.Kind))
	d.h.Write(m.Payload)
}

func (d *wireDigest) line(key, tail string) string {
	return fmt.Sprintf("%s %d %d %x %s", key, d.msgs, d.bytes, d.h.Sum(nil), tail)
}

// corpusCases names the frozen streams: opGen's 200-round random streams
// for seeds 1–3 and the hand-picked edge batches.
var corpusCases = []string{"seed1", "seed2", "seed3", "edges"}

// displayBatches returns the case's op batches, each with the decoy
// prefix (possibly empty) the tape path encodes after, so the [from, to)
// window starts at non-zero arena offsets.
func displayBatches(c string, w, h int) (batches, decoys [][]display.Op) {
	if c == "edges" {
		batches = edgeBatches()
		g := &opGen{r: simclock.NewRand(5), w: w, h: h}
		for range batches {
			decoys = append(decoys, g.batch())
		}
		return batches, decoys
	}
	var seed uint64
	fmt.Sscanf(c, "seed%d", &seed)
	g := &opGen{r: simclock.NewRand(seed), w: w, h: h}
	for round := 0; round < 200; round++ {
		batches = append(batches, g.batch())
		var decoy []display.Op
		if g.r.Intn(3) == 0 {
			decoy = g.batch()
		}
		decoys = append(decoys, decoy)
	}
	return batches, decoys
}

// displayLine encodes the case's display stream with a fresh pair, the
// tape form (through the decoy window) or the boxed Update form, applies
// it to the rendering client, and returns the corpus line.
func displayLine(t *testing.T, name, c string, tape bool) string {
	srv, cli, _, err := protos.New(name)
	if err != nil {
		t.Fatal(err)
	}
	fb := cli.Framebuffer()
	batches, decoys := displayBatches(c, fb.W, fb.H)
	d := newWireDigest()
	var ot display.OpTape
	var sc proto.Scratch
	for round, ops := range batches {
		var msgs []proto.Message
		if tape {
			ot.Reset()
			ot.AppendOps(decoys[round])
			from := ot.Len()
			ot.AppendOps(ops)
			if got := ot.AppendTo(nil, from, ot.Len()); len(ops) > 0 && !reflect.DeepEqual(got, ops) {
				t.Fatalf("round %d: tape round-trip mismatch:\n got %#v\nwant %#v", round, got, ops)
			}
			msgs = srv.UpdateTape(&ot, from, ot.Len(), &sc)
		} else {
			msgs = srv.Update(ops)
		}
		for _, m := range msgs {
			d.add(m)
			if err := cli.Apply(m); err != nil {
				t.Fatalf("round %d: apply %s: %v", round, m.Kind, err)
			}
		}
	}
	return d.line(name+" "+c+" display", fmt.Sprintf("fb=%016x", fb.Hash()))
}

// inputLine encodes the case's input stream with a fresh pair, through
// EncodeInputScratch or the boxed EncodeInput, decodes every message on
// the server, and returns the corpus line; the digest covers the decoded
// events too.
func inputLine(t *testing.T, name, c string, scratch bool) string {
	srv, cli, _, err := protos.New(name)
	if err != nil {
		t.Fatal(err)
	}
	var seed uint64 = 4
	fmt.Sscanf(c, "seed%d", &seed)
	r := simclock.NewRand(simclock.DeriveSeed(seed, 1))
	d := newWireDigest()
	var sc proto.Scratch
	events := 0
	for round := 0; round < 200; round++ {
		evs := inGen(r)
		var msgs []proto.Message
		if scratch {
			msgs = cli.EncodeInputScratch(evs, &sc)
		} else {
			msgs = cli.EncodeInput(evs)
		}
		for _, m := range msgs {
			d.add(m)
			got, err := srv.DecodeInput(m)
			if err != nil {
				t.Fatalf("round %d: decode: %v", round, err)
			}
			for _, ev := range got {
				fmt.Fprintf(d.h, "%#v;", ev)
			}
			events += len(got)
		}
	}
	return d.line(name+" "+c+" input", fmt.Sprintf("events=%d", events))
}

// readCorpus loads testdata/wire.txt keyed by its first three fields
// (codec, case, direction).
func readCorpus(t *testing.T) map[string]string {
	f, err := os.Open("testdata/wire.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		want[strings.Join(fields[:3], " ")] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTapeMatchesOpsRandomStreams freezes every codec's wire output: for
// each (codec, case) stream the display direction — through both the
// pointer-free UpdateTape window and the boxed Update — and the input
// direction — through both EncodeInputScratch and EncodeInput, decoded by
// DecodeInput — must reproduce the checked-in line in testdata/wire.txt:
// message count, byte total, the SHA-256 of every message (and decoded
// event) in order, and the rendering client's final framebuffer hash.
// The corpus was generated before the codecs moved to one tape encoder
// each, so a match proves the move left every wire byte where it was. On
// a mismatch the test prints the computed line.
func TestTapeMatchesOpsRandomStreams(t *testing.T) {
	want := readCorpus(t)
	for _, name := range protos.Names() {
		for _, c := range corpusCases {
			t.Run(name+"_"+c, func(t *testing.T) {
				for _, form := range []bool{true, false} {
					for _, got := range []string{displayLine(t, name, c, form), inputLine(t, name, c, form)} {
						key := strings.Join(strings.Fields(got)[:3], " ")
						if got != want[key] {
							t.Errorf("tape/scratch form %v: computed\n%s\ncorpus\n%s", form, got, want[key])
						}
					}
				}
			})
		}
	}
}
