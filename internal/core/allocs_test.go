package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/designs"
	"repro/internal/hw"
	"repro/internal/raceflag"
)

// TestEagerWindowAllocationBudget pins the steady-state zero-byte eager
// path at two allocations per message — the send request and the receive
// request, each co-allocated with its packet or posted-receive record —
// for the lock-free CRI design and the stock design. Receives are posted
// before the sends, so every message matches a posted receive.
func TestEagerWindowAllocationBudget(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	const window = 64
	for _, d := range []designs.Design{designs.OMPIThreadCRILockFree, designs.OMPIThread} {
		t.Run(d.Slug(), func(t *testing.T) {
			w, err := core.NewWorld(hw.Fast(), 2, d.CoreOptions(2))
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			p0, p1 := w.Proc(0), w.Proc(1)
			c0, c1 := p0.CommWorld(), p1.CommWorld()
			t0, t1 := p0.NewThread(), p1.NewThread()
			sends := make([]*core.Request, window)
			recvs := make([]*core.Request, window)
			run := func() {
				for i := range recvs {
					r, err := c1.Irecv(t1, 0, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					recvs[i] = r
				}
				for i := range sends {
					s, err := c0.Isend(t0, 1, 1, nil)
					if err != nil {
						t.Fatal(err)
					}
					sends[i] = s
				}
				if err := core.WaitAll(t0, sends...); err != nil {
					t.Fatal(err)
				}
				if err := core.WaitAll(t1, recvs...); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm up lazily built state
			perMsg := testing.AllocsPerRun(50, run) / window
			if perMsg > 2 {
				t.Fatalf("%v allocations per message, want <= 2", perMsg)
			}
			t.Logf("%.3f allocations per message", perMsg)
		})
	}
}
