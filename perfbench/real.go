package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/spc"
	"repro/internal/transport/tcpnet"
)

// chunkWindows is how many windows both threads run between two
// coordination points, so the sender runs at most this many windows ahead
// of the receiver. The coordinator decides at each point whether the
// measured time is up, so a run ends on a window boundary with both sides
// agreeing on the message count.
const chunkWindows = 16

// segmentChunks is how many chunks one statistics segment spans: rates and
// allocations are taken per segment, and a run reports their median.
const segmentChunks = 16

// hangTimeout bounds one chunk on both sides. A chunk that does not finish
// in this time has lost a completion (core.WaitAll waits without a limit);
// the run ends with an error.
const hangTimeout = 60 * time.Second

// rig is one set-up sender/receiver pair: the world or worlds, the
// communicator endpoints, and one runtime thread per side.
type rig struct {
	spec   *realSpec
	in     inputs
	worlds []*core.World
	send   *core.Comm
	recv   *core.Comm
	sth    *core.Thread
	rth    *core.Thread

	sendReqs []*core.Request
	recvReqs []*core.Request
	recvBufs [][]byte

	// recvWindow counts the windows the receiver has run; the count picks
	// the tag permutation.
	recvWindow int

	// failed counts messages whose completion failed a check.
	failed int64
	// firstErr is the first check failure, for the report.
	firstErr error

	// sendCmd and recvCmd start the given number of windows on the
	// sender's and the receiver's goroutine; sendDone and recvDone report
	// their outcome. hang bounds the wait for both.
	sendCmd, recvCmd   chan int
	sendDone, recvDone chan error
	hang               time.Duration
	// lat, when non-nil, receives the sender's window durations.
	lat *reservoir
	// stallSend, when non-nil, runs before every sender WaitAll; tests
	// block in it to stand for a lost send completion.
	stallSend func()

	// str and rtr, when non-nil, receive the sender's and the receiver's
	// spans.
	str, rtr *sideTracer

	// expect is the checker's copy of the inputs; tests alter it to prove
	// the checks fire.
	expect inputs
}

// coreOptions resolves the workload's runtime options.
func (s *realSpec) coreOptions() core.Options {
	o := s.design.CoreOptions(s.instances)
	if s.observed {
		o.Telemetry = true
		o.Latency = true
		o.Profile = true
		o.FlightCapacity = 1024
		o.TraceCapacity = 4096
	}
	return o
}

// newRig builds the world(s) and communicators. Connection establishment
// and lazy state are paid by the caller's warm-up window.
func newRig(spec *realSpec, in inputs) (*rig, error) {
	r := &rig{spec: spec, in: in, expect: in, hang: hangTimeout}
	opts := spec.coreOptions()
	if spec.tcp {
		nets, err := tcpnet.NewLoopback(2)
		if err != nil {
			return nil, err
		}
		for rank := 0; rank < 2; rank++ {
			w, err := core.NewDistributedWorld(hw.Fast(), rank, 2, nets[rank], opts)
			if err != nil {
				r.close()
				return nil, fmt.Errorf("rank %d world: %w", rank, err)
			}
			r.worlds = append(r.worlds, w)
		}
		// Both worlds create the communicator collectively, in the same
		// order, so the communicator ids agree.
		comms := make([]*core.Comm, 2)
		for rank, w := range r.worlds {
			cs, err := w.NewCommWithInfo([]int{0, 1}, core.Info{})
			if err != nil {
				r.close()
				return nil, err
			}
			comms[rank] = cs[rank]
		}
		r.send, r.recv = comms[0], comms[1]
	} else {
		w, err := core.NewWorld(hw.Fast(), 2, opts)
		if err != nil {
			return nil, err
		}
		r.worlds = []*core.World{w}
		cs, err := w.NewCommWithInfo([]int{0, 1}, core.Info{})
		if err != nil {
			r.close()
			return nil, err
		}
		r.send, r.recv = cs[0], cs[1]
	}
	r.sth = r.send.Proc().NewThread()
	r.rth = r.recv.Proc().NewThread()
	r.startSides()
	W := spec.window
	r.sendReqs = make([]*core.Request, W)
	r.recvReqs = make([]*core.Request, W)
	r.recvBufs = make([][]byte, W)
	for i := range r.recvBufs {
		r.recvBufs[i] = make([]byte, spec.payload)
	}
	return r, nil
}

func (r *rig) close() {
	if r.sendCmd != nil {
		close(r.sendCmd)
		close(r.recvCmd)
	}
	for _, w := range r.worlds {
		w.Close()
	}
}

// sendWindowOnce runs one sender window: W Isends then WaitAll. It returns
// the window's duration.
func (r *rig) sendWindowOnce() (time.Duration, error) {
	W := r.spec.window
	tr := r.str
	t0 := time.Now()
	for i := 0; i < W; i++ {
		s := tr.begin()
		req, err := r.send.Isend(r.sth, 1, r.in.sendTag(i), r.in.payload(i))
		tr.end(spanIsend, s)
		if err != nil {
			return 0, fmt.Errorf("isend: %w", err)
		}
		r.sendReqs[i] = req
	}
	if r.stallSend != nil {
		r.stallSend()
	}
	s := tr.begin()
	err := core.WaitAll(r.sth, r.sendReqs...)
	tr.end(spanWaitSend, s)
	d := time.Since(t0)
	tr.window(spanSendWindow, d)
	if err != nil {
		return d, fmt.Errorf("send waitall: %w", err)
	}
	return d, nil
}

// recvWindowOnce runs one receiver window: W Irecvs then WaitAll, then
// checks every completion against the expected inputs.
func (r *rig) recvWindowOnce() error {
	W := r.spec.window
	tr := r.rtr
	k := r.recvWindow
	r.recvWindow++
	t0 := time.Now()
	for j := 0; j < W; j++ {
		s := tr.begin()
		req, err := r.recv.Irecv(r.rth, 0, r.in.recvTag(k, j), r.recvBufs[j])
		tr.end(spanIrecv, s)
		if err != nil {
			return fmt.Errorf("irecv: %w", err)
		}
		r.recvReqs[j] = req
	}
	s := tr.begin()
	err := core.WaitAll(r.rth, r.recvReqs...)
	tr.end(spanWaitRecv, s)
	tr.window(spanRecvWindow, time.Since(t0))
	if err != nil {
		r.failed += int64(W)
		return fmt.Errorf("recv waitall: %w", err)
	}
	r.check(k)
	return nil
}

// check verifies window k's completions: every receive came from rank 0,
// with the expected tag and, on payload workloads, the expected bytes. A
// missing completion never reaches it: WaitAll does not return, and the
// chunk's hang timer ends the run.
func (r *rig) check(k int) {
	ex := &r.expect
	for j, req := range r.recvReqs {
		if err := r.checkOne(ex, k, j, req); err != nil {
			r.failed++
			if r.firstErr == nil {
				r.firstErr = fmt.Errorf("window %d slot %d: %w", k, j, err)
			}
		}
	}
}

func (r *rig) checkOne(ex *inputs, k, j int, req *core.Request) error {
	st := req.Status()
	want := ex.recvTag(k, j)
	if st.Source != 0 || st.Tag != want {
		return fmt.Errorf("status source %d tag %d, want source 0 tag %d", st.Source, st.Tag, want)
	}
	// The message received at slot j is send index j on single-tag
	// workloads (FIFO per source and tag) and send index tag on permuted
	// ones.
	idx := j
	if ex.perms != nil {
		idx = int(want)
	}
	p := ex.payload(idx)
	if st.Count != len(p) || st.Truncated || !bytes.Equal(r.recvBufs[j][:st.Count], p) {
		return fmt.Errorf("payload mismatch (%d bytes)", st.Count)
	}
	return nil
}

// warmup runs one window on both sides: connections establish, lazy
// state initializes, and the first completions are checked.
func (r *rig) warmup() error {
	return r.runChunk(1)
}

// startSides starts the goroutines that run the sender's and the
// receiver's windows on command; close stops them.
func (r *rig) startSides() {
	r.sendCmd, r.recvCmd = make(chan int), make(chan int)
	r.sendDone, r.recvDone = make(chan error), make(chan error)
	go func() {
		for n := range r.sendCmd {
			var err error
			for i := 0; i < n && err == nil; i++ {
				var d time.Duration
				if d, err = r.sendWindowOnce(); err == nil && r.lat != nil {
					r.lat.add(d.Nanoseconds())
				}
			}
			r.sendDone <- err
		}
	}()
	go func() {
		for n := range r.recvCmd {
			var err error
			for i := 0; i < n && err == nil; i++ {
				err = r.recvWindowOnce()
			}
			r.recvDone <- err
		}
	}()
}

// runChunk runs n windows on both sides concurrently and waits for both,
// for at most r.hang. After an error or a timeout the sides may wait
// forever for messages that will not come; the run is over, and exiting
// the process stops them.
func (r *rig) runChunk(n int) error {
	timer := time.NewTimer(r.hang)
	defer timer.Stop()
	r.sendCmd <- n
	r.recvCmd <- n
	var sendOK, recvOK bool
	for !sendOK || !recvOK {
		select {
		case err := <-r.sendDone:
			if err != nil {
				return err
			}
			sendOK = true
		case err := <-r.recvDone:
			if err != nil {
				return err
			}
			recvOK = true
		case <-timer.C:
			side := "sender"
			if sendOK {
				side = "receiver"
			}
			return fmt.Errorf("%s did not complete %d windows within %v", side, n, r.hang)
		}
	}
	return nil
}

// segment is one statistics segment's message count, wall time and
// allocations.
type segment struct {
	messages      int64
	ns            int64
	allocs, bytes uint64
}

// loopResult is one measured closed-loop section.
type loopResult struct {
	messages int64
	elapsed  time.Duration
	segments []segment
	// spcs holds per-segment receiver SPC deltas when kept, for the spread
	// of the timing-dependent counts.
	spcs []spc.Snapshot
}

// medianPerSegment returns the median over segments of f(segment), the
// run's figure robust to a segment the host stalled.
func (l *loopResult) medianPerSegment(f func(segment) float64) float64 {
	v := make([]float64, len(l.segments))
	for i, c := range l.segments {
		v[i] = f(c)
	}
	return median(v)
}

// measure runs chunks until dur has elapsed, recording each segment's
// messages, time and allocations, and the sender's window durations into
// lat when it is non-nil. Per-segment receiver SPC deltas are kept when
// keepSPCs.
func (r *rig) measure(dur time.Duration, lat *reservoir, keepSPCs bool) (loopResult, error) {
	r.lat = lat
	defer func() { r.lat = nil }()
	res := loopResult{segments: make([]segment, 0, 1<<10)}
	chunkMsgs := int64(chunkWindows * r.spec.window)
	recvProc := r.recv.Proc()
	prev := recvProc.SPCSnapshot()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	t0 := start
	var segMsgs int64
	for done := false; !done; {
		for i := 0; i < segmentChunks; i++ {
			if err := r.runChunk(chunkWindows); err != nil {
				res.elapsed = time.Since(start)
				return res, err
			}
			segMsgs += chunkMsgs
			if done = time.Since(start) >= dur; done {
				break
			}
		}
		t1 := time.Now()
		runtime.ReadMemStats(&m1)
		res.messages += segMsgs
		res.segments = append(res.segments, segment{segMsgs, t1.Sub(t0).Nanoseconds(),
			m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc})
		segMsgs = 0
		if keepSPCs {
			cur := recvProc.SPCSnapshot()
			res.spcs = append(res.spcs, cur.Sub(prev))
			prev = cur
		}
		m0 = m1
		t0 = time.Now()
	}
	res.elapsed = time.Since(start)
	return res, nil
}
