package cri

import (
	"testing"

	"repro/internal/raceflag"
	"repro/internal/transport/mocknet"
)

// TestAcquireSendAllocatesNothing pins the send path's instance
// acquisition and release at zero allocations under every assignment
// strategy: the release function is built once per instance, not per call.
func TestAcquireSendAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, mode := range []Assignment{FreeList, RoundRobin, Dedicated} {
		t.Run(mode.String(), func(t *testing.T) {
			dev := mocknet.NewDevice()
			ins := make([]*Instance, 2)
			for i := range ins {
				ctx, err := dev.CreateContext(0)
				if err != nil {
					t.Fatal(err)
				}
				ins[i] = NewInstance(i, ctx, nil)
			}
			pool, err := NewPool(ins, mode)
			if err != nil {
				t.Fatal(err)
			}
			ts := NewThreadState(-1)
			if a := testing.AllocsPerRun(100, func() {
				_, release := pool.AcquireSend(&ts)
				release()
			}); a != 0 {
				t.Fatalf("AcquireSend+release allocates %v per call, want 0", a)
			}
		})
	}
}
