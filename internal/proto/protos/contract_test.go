package protos_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/protos"
	"thinbench/internal/simclock"
)

// transcript drives a codec pair with 60 rounds of random display and
// input traffic drawn from seed and records everything observable: every
// display and input message's bytes, every Apply verdict, every decoded
// event and ValidateInput count, any client cache counts after each
// update, and the final framebuffer hash. It opens with pointerProbe.
// With garbage set, every fifth round also feeds each side the first half
// of its first message — a dangling lbx chunk, a half-decoded motion
// pack — so the pair is left in as much mid-stream state as the codec has.
func transcript(t *testing.T, srv proto.Server, cli proto.Client, seed uint64, garbage bool) []string {
	t.Helper()
	g := &opGen{r: simclock.NewRand(seed), w: display.TypicalScreenW, h: display.TypicalScreenH}
	in := simclock.NewRand(simclock.DeriveSeed(seed, 1))
	var out []string
	var tape display.OpTape
	var dsc, isc proto.Scratch
	for _, m := range cli.EncodeInputScratch(pointerProbe, &isc) {
		events, err := srv.DecodeInput(m)
		out = append(out, fmt.Sprintf("probe %x decode=%#v,%v", m.Payload, events, err))
	}
	for round := 0; round < 60; round++ {
		tape.Reset()
		tape.AppendOps(g.batch())
		msgs := srv.UpdateTape(&tape, 0, tape.Len(), &dsc)
		for _, m := range msgs {
			out = append(out, fmt.Sprintf("display %s %x apply=%v", m.Kind, m.Payload, cli.Apply(m)))
		}
		if cc, ok := cli.(cacheCounter); ok {
			out = append(out, fmt.Sprintf("cached %d bitmaps, %d glyphs", cc.CachedBitmaps(), cc.CachedGlyphs()))
		}
		if garbage && round%5 == 4 && len(msgs) > 0 {
			m := msgs[0]
			m.Payload = m.Payload[:len(m.Payload)/2]
			out = append(out, fmt.Sprintf("garbage display apply=%v", cli.Apply(m)))
		}
		for _, m := range cli.EncodeInputScratch(inGen(in), &isc) {
			n, errV := srv.ValidateInput(m)
			out = append(out, fmt.Sprintf("input %s %x validate=%d,%v", m.Kind, m.Payload, n, errV))
			if garbage && round%5 == 4 {
				m.Payload = m.Payload[:len(m.Payload)/2]
				_, err := srv.DecodeInput(m)
				out = append(out, fmt.Sprintf("garbage input decode=%v", err))
			}
		}
		for _, m := range cli.EncodeInputScratch(inGen(in), &isc) {
			events, err := srv.DecodeInput(m)
			out = append(out, fmt.Sprintf("input %s %x decode=%#v,%v", m.Kind, m.Payload, events, err))
		}
	}
	if fb := cli.Framebuffer(); fb != nil {
		out = append(out, fmt.Sprintf("fb=%016x", fb.Hash()))
	}
	return out
}

// pointerProbe is a click and a small move from the origin: any endpoint
// still holding an old pointer position (vnc's click position and motion
// filter, lbx's motion deltas) encodes or decodes it differently from a
// fresh one.
var pointerProbe = []display.InputEvent{display.MouseButton{Down: true, Button: 1}, display.MouseMove{X: 5, Y: 5}}

// TestResetSessionMatchesFresh is the contract session pools rely on: a
// pair driven with random traffic (garbage included) and then reset on
// both ends must behave exactly like a brand-new pair — identical wire
// bytes in both directions, identical decoded events, validate counts and
// Apply verdicts, and identical rendering — for every codec, with
// rendering and screenless clients alike.
func TestResetSessionMatchesFresh(t *testing.T) {
	for _, name := range protos.Names() {
		for _, screen := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s_screen=%v", name, screen), func(t *testing.T) {
				build := protos.NewScreenless
				if screen {
					build = protos.New
				}
				used, usedCli, _, err := build(name)
				if err != nil {
					t.Fatal(err)
				}
				transcript(t, used, usedCli, 1, true)
				used.ResetSession()
				usedCli.ResetSession()
				fresh, freshCli, _, err := build(name)
				if err != nil {
					t.Fatal(err)
				}
				got := transcript(t, used, usedCli, 2, false)
				want := transcript(t, fresh, freshCli, 2, false)
				if len(got) != len(want) {
					t.Fatalf("reset pair logged %d events, fresh pair %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("event %d differs after reset:\nreset: %.300s\nfresh: %.300s", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// inputVerdict is one DecodeInput or ValidateInput outcome, normalized for
// comparison: the event count (zero on error) and the error class.
type inputVerdict struct {
	n                 int
	ok, trunc, badMsg bool
}

func verdict(n int, err error) inputVerdict {
	if err != nil {
		n = 0
	}
	return inputVerdict{n: n, ok: err == nil, trunc: errors.Is(err, proto.ErrTruncated), badMsg: errors.Is(err, proto.ErrBadMessage)}
}

// FuzzDecodeInput checks each codec's one input walk from both ends: a
// fresh server decoding and another validating the same bytes, twice in a
// row so decoder state (vnc's pointer, lbx's motion origin) carries into
// the second pass, must agree on accept versus reject, on the error class
// (ErrTruncated, ErrBadMessage), and on the event count, which must equal
// len(events). A third pass decodes on both, so the validating server
// must have been left in the decoding server's state. Nothing may panic.
// The high bit of codec sends the bytes on the display channel instead,
// which every server must reject. Seeds are real EncodeInput output for
// all five codecs, pointerProbe included.
func FuzzDecodeInput(f *testing.F) {
	names := protos.Names()
	for i, name := range names {
		_, cli, _, err := protos.New(name)
		if err != nil {
			f.Fatal(err)
		}
		r := simclock.NewRand(simclock.DeriveSeed(7, uint64(i)))
		for _, evs := range [][]display.InputEvent{pointerProbe, inGen(r), inGen(r), inGen(r)} {
			for _, m := range cli.EncodeInput(evs) {
				f.Add(uint8(i), m.Payload)
			}
		}
	}
	f.Fuzz(func(t *testing.T, codec uint8, payload []byte) {
		name := names[int(codec&0x7f)%len(names)]
		m := proto.Message{Channel: proto.Input, Kind: "fuzz", Payload: payload}
		if codec&0x80 != 0 {
			m.Channel = proto.Display
		}
		dec, _, _, err := protos.NewScreenless(name)
		if err != nil {
			t.Fatal(err)
		}
		val, _, _, _ := protos.NewScreenless(name)
		for pass := 0; pass < 2; pass++ {
			events, errD := dec.DecodeInput(m)
			n, errV := val.ValidateInput(m)
			if verdict(len(events), errD) != verdict(n, errV) {
				t.Fatalf("%s pass %d: DecodeInput gave %d events, %v; ValidateInput %d, %v",
					name, pass, len(events), errD, n, errV)
			}
			if m.Channel == proto.Display && errD == nil {
				t.Fatalf("%s: display-channel message accepted as input", name)
			}
		}
		want, errD := dec.DecodeInput(m)
		got, errV := val.DecodeInput(m)
		if !reflect.DeepEqual(got, want) || verdict(0, errD) != verdict(0, errV) {
			t.Fatalf("%s: after validating, DecodeInput gave %#v, %v; after decoding, %#v, %v", name, got, errV, want, errD)
		}
	})
}
