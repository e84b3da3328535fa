package progress

import (
	"testing"

	"repro/internal/cri"
	"repro/internal/prof"
	"repro/internal/raceflag"
	"repro/internal/transport"
)

// TestProgressPassAllocatesNothing pins one progress pass at zero
// allocations in both designs, over idle instances and with one packet to
// extract: an instance poll hands its context a callback built once, not a
// closure per call.
func TestProgressPassAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, mode := range []Mode{Serial, Concurrent} {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, 2)
			handled := 0
			e := New(mode, h.pool, func(*prof.ThreadClock, *cri.Instance, transport.CQE) { handled++ }, nil)
			ts := cri.NewThreadState(0)
			if a := testing.AllocsPerRun(100, func() { e.Progress(&ts) }); a != 0 {
				t.Errorf("empty pass allocates %v, want 0", a)
			}
			pkt := transport.NewPacket(transport.Envelope{Kind: transport.KindEager}, nil, nil)
			ep := h.sendEps[0]
			if a := testing.AllocsPerRun(100, func() {
				if err := ep.Send(pkt); err != nil {
					t.Fatal(err)
				}
				e.Progress(&ts)
			}); a != 0 {
				t.Errorf("pass with one packet allocates %v, want 0", a)
			}
			if handled != 101 {
				t.Errorf("handled %d packets, want 101", handled)
			}
		})
	}
}
