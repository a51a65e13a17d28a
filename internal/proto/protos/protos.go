// Package protos is the registry of remote display protocol
// implementations: one constructor keyed by the protocol's short name, so
// that every consumer — the shared-server contention model, the trace
// tools, the TCP streamer — builds endpoint pairs the same way instead of
// each maintaining its own switch.
//
// It lives beside the proto core rather than inside it because the core is
// imported by every codec; the registry imports every codec.
package protos

import (
	"fmt"
	"slices"

	"thinbench/internal/display"
	"thinbench/internal/proto"
	"thinbench/internal/proto/lbx"
	"thinbench/internal/proto/rdp"
	"thinbench/internal/proto/slim"
	"thinbench/internal/proto/vnc"
	"thinbench/internal/proto/xwire"
	"thinbench/internal/simclock"
)

// Opts carries each protocol's characteristic client/server flushing
// behavior, used by trace replay and the shared-server session pipelines.
type Opts struct {
	// InputCoalesce merges input batches closer together than this into
	// one EncodeInput call (TSE coalesces aggressively; X flushes at
	// event-queue granularity).
	InputCoalesce simclock.Duration
	// DisplayCoalesce merges display batches within the window into one
	// Update call (TSE aggregates damage on a timer; X requests flow
	// individually).
	DisplayCoalesce simclock.Duration
}

// Names lists the registered protocol names in canonical order.
func Names() []string { return []string{"rdp", "x", "lbx", "vnc", "slim"} }

// New builds a fresh server/client endpoint pair for the named protocol
// with its default configuration and flushing behavior. The client renders
// into its own framebuffer.
func New(name string) (proto.Server, proto.Client, Opts, error) { return build(name, true) }

// NewScreenless builds the same pair as New, except that the client has no
// screen. Its Apply walks every display message exactly as the rendering
// client's does — it accepts and rejects the same messages and keeps the
// same cache state — but no framebuffer is allocated, cleared or written,
// and its Framebuffer returns nil. The simulator uses it: nothing there
// reads client pixels.
func NewScreenless(name string) (proto.Server, proto.Client, Opts, error) {
	return build(name, false)
}

// Check returns the error New would for name, without building a pair.
func Check(name string) error {
	if slices.Contains(Names(), name) {
		return nil
	}
	return fmt.Errorf("protos: unknown protocol %q", name)
}

func build(name string, screen bool) (proto.Server, proto.Client, Opts, error) {
	if err := Check(name); err != nil {
		return nil, nil, Opts{}, err
	}
	switch name {
	case "rdp":
		cfg := rdp.DefaultConfig()
		// The TSE client samples pointer motion rather than forwarding
		// every event; 1-in-8 is the registry's canonical RDP input
		// behavior for every consumer (it was previously a prototap-only
		// tweak, so thinserve's RDP input bytes changed when it moved
		// here).
		cfg.MotionSample = 8
		cli := rdp.NewScreenlessClient
		if screen {
			cli = rdp.NewClient
		}
		return rdp.NewServer(cfg), cli(cfg), Opts{
			InputCoalesce:   500 * simclock.Millisecond,
			DisplayCoalesce: simclock.Second,
		}, nil
	case "x":
		var cli *xwire.Client
		if screen {
			cli = xwire.NewClient(display.TypicalScreenW, display.TypicalScreenH)
		} else {
			cli = xwire.NewScreenlessClient()
		}
		return xwire.NewServer(), cli, Opts{}, nil
	case "lbx":
		cli := lbx.NewScreenlessClient
		if screen {
			cli = lbx.NewClient
		}
		return lbx.NewServer(lbx.DefaultConfig()), cli(lbx.DefaultConfig()), Opts{
			InputCoalesce: 75 * simclock.Millisecond,
		}, nil
	case "vnc":
		cli := vnc.NewScreenlessClient
		if screen {
			cli = vnc.NewClient
		}
		return vnc.NewServer(vnc.DefaultConfig()), cli(vnc.DefaultConfig()), Opts{
			DisplayCoalesce: 100 * simclock.Millisecond,
		}, nil
	default: // "slim"
		cli := slim.NewScreenlessClient
		if screen {
			cli = slim.NewClient
		}
		return slim.NewServer(slim.DefaultConfig()), cli(slim.DefaultConfig()), Opts{}, nil
	}
}
