package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/spc"
)

// rigReps is how many rigs an end-to-end run sets up, measures and closes
// one after another.
const rigReps = 10

// setupReps is how many set-ups setup_s is the median of: the measured
// rigs' and, to make up the number, rigs set up and closed unmeasured
// (model-sweep: loads of the baseline, each with its warm-up point). One
// set-up takes about a millisecond, so its median needs many samples.
const setupReps = 40

// windowSamples bounds the window-latency reservoir.
const windowSamples = 1 << 16

// Shares of --seconds a traced run spends on its three parts: the untraced
// loop (the trace-overhead baseline), the traced loop, and the isolated
// calls.
const (
	untracedShare = 0.3
	tracedShare   = 0.4
	layersShare   = 0.3
)

// liveHeap forces a GC and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setupRig builds a rig and runs its warm-up window, returning it with
// the set-up time in seconds.
func setupRig(spec *realSpec, in inputs, rep *report) (*rig, float64, error) {
	t0 := time.Now()
	r, err := newRig(spec, in)
	if err != nil {
		return nil, 0, fmt.Errorf("setup: %w", err)
	}
	err = r.warmup()
	setupS := time.Since(t0).Seconds()
	rep.attempted += int64(spec.window)
	rep.fail(r.failed, r.firstErr)
	r.failed, r.firstErr = 0, nil
	if err != nil {
		r.close()
		return nil, 0, fmt.Errorf("warm-up window: %w", err)
	}
	return r, setupS, nil
}

// rigFigures is one rig's share of an end-to-end run.
type rigFigures struct {
	setupS, ops, allocs, bytes, liveMB, p50us, p90us, p99us float64
	messages, windows                                       int64
	segments                                                int
}

func runReal(w workload, cfg config, dur time.Duration, rep *report) error {
	spec := w.real
	in := makeInputs(spec, cfg.seed)
	if cfg.trace {
		overhead, err := tracedRuntime(w.name, spec, in, time.Duration(float64(dur)*(1-layersShare)), layerTime(dur), rep)
		if err != nil {
			return err
		}
		rep.add("trace_overhead", overhead, "ratio", "(1 - traced/untraced ops_per_s)")
		return nil
	}
	var setups []float64
	for i := rigReps; i < setupReps; i++ {
		r, setupS, err := setupRig(spec, in, rep)
		if err != nil {
			return err
		}
		r.close()
		setups = append(setups, setupS)
	}
	// Each rig is set up, measured for its share of the time, and closed.
	// A fresh rig draws fresh connection and scheduling state, so the
	// median over rigs is steadier than one long section.
	var figs []rigFigures
	for i := 0; i < rigReps; i++ {
		f, err := measureRig(spec, in, dur/rigReps, rep)
		if err != nil {
			return err
		}
		figs = append(figs, f)
		setups = append(setups, f.setupS)
	}
	med := func(get func(rigFigures) float64) float64 {
		v := make([]float64, len(figs))
		for i, f := range figs {
			v[i] = get(f)
		}
		return median(v)
	}
	var msgs, windows int64
	segs := 0
	for _, f := range figs {
		msgs += f.messages
		windows += f.windows
		segs += f.segments
	}
	base := fmt.Sprintf("(median of %d rigs, each the median over its segments; %d msgs, W=%d, %d segments)", len(figs), msgs, spec.window, segs)
	rep.add("ops_per_s", med(func(f rigFigures) float64 { return f.ops }), "1/s", base)
	wins := fmt.Sprintf("(median of %d rigs' quantiles; %d windows in all)", len(figs), windows)
	rep.add("window_p50_us", med(func(f rigFigures) float64 { return f.p50us }), "us", wins)
	rep.add("window_p90_us", med(func(f rigFigures) float64 { return f.p90us }), "us",
		fmt.Sprintf("%s; p99 %.1f us, too host-dependent to gate", wins, med(func(f rigFigures) float64 { return f.p99us })))
	rep.add("allocs_per_op", med(func(f rigFigures) float64 { return f.allocs }), "count", base)
	rep.add("bytes_per_op", med(func(f rigFigures) float64 { return f.bytes }), "B", base)
	rep.add("live_heap_mb", med(func(f rigFigures) float64 { return f.liveMB }), "MB", "(HeapAlloc after runtime.GC, world open)")
	rep.add("setup_s", median(setups), "s",
		fmt.Sprintf("(median of %d set-ups, each incl. one warm-up window)", len(setups)))
	return nil
}

// measureRig sets up one rig, measures it for dur and closes it. Rates and
// allocations are medians over the rig's segments.
func measureRig(spec *realSpec, in inputs, dur time.Duration, rep *report) (rigFigures, error) {
	r, setupS, err := setupRig(spec, in, rep)
	if err != nil {
		return rigFigures{}, err
	}
	defer r.close()
	lat := newReservoir(windowSamples)
	runtime.GC()
	recv0 := r.recv.Proc().SPCSnapshot()
	res, err := r.measure(dur, lat, false)
	if err != nil {
		return rigFigures{}, err
	}
	live := liveHeap()
	r.account(res.messages, recv0, rep)
	return rigFigures{
		setupS: setupS,
		ops:    res.medianPerSegment(func(c segment) float64 { return float64(c.messages) / float64(c.ns) * 1e9 }),
		allocs: res.medianPerSegment(func(c segment) float64 { return float64(c.allocs) / float64(c.messages) }),
		bytes:  res.medianPerSegment(func(c segment) float64 { return float64(c.bytes) / float64(c.messages) }),
		liveMB: float64(live) / (1 << 20),
		p50us:  float64(lat.quantile(0.50)) / 1e3,
		p90us:  float64(lat.quantile(0.90)) / 1e3,
		p99us:  float64(lat.quantile(0.99)) / 1e3,

		messages: res.messages,
		windows:  lat.seen,
		segments: len(res.segments),
	}, nil
}

// account adds a measured section's messages to the attempted count and
// its check failures to the failed count, including any gap between the
// messages sent and the receiver's messages_received counter.
func (r *rig) account(sent int64, recv0 spc.Snapshot, rep *report) {
	rep.attempted += sent
	rep.fail(r.failed, r.firstErr)
	got := r.recv.Proc().SPCSnapshot().Sub(recv0).Get(spc.MessagesReceived)
	if got != sent {
		missing := sent - got
		if missing < 0 {
			missing = -missing
		}
		rep.fail(missing, fmt.Errorf("receiver messages_received delta %d, sent %d", got, sent))
	}
	r.failed, r.firstErr = 0, nil
}

// tracedRuntime is the traced part of a --trace 1 run on the workload
// named name: a rig runs an untraced loop and a traced loop with spans
// around every core call, sharing loops between them, and then the
// isolated calls run for layers each. It prints every per-layer metric
// but trace_overhead, which it returns.
func tracedRuntime(name string, spec *realSpec, in inputs, loops, layers time.Duration, rep *report) (float64, error) {
	r, _, err := setupRig(spec, in, rep)
	if err != nil {
		return 0, err
	}
	defer r.close()
	recv0 := r.recv.Proc().SPCSnapshot()
	plainShare := untracedShare / (untracedShare + tracedShare)
	plain, err := r.measure(time.Duration(float64(loops)*plainShare), nil, false)
	if err != nil {
		return 0, err
	}
	r.account(plain.messages, recv0, rep)

	send0, recv0 := r.send.Proc().SPCSnapshot(), r.recv.Proc().SPCSnapshot()
	r.str, r.rtr = &sideTracer{}, &sideTracer{}
	traced, err := r.measure(time.Duration(float64(loops)*(1-plainShare)), nil, true)
	str, rtr := r.str, r.rtr
	r.str, r.rtr = nil, nil
	if err != nil {
		return 0, err
	}
	sendD := r.send.Proc().SPCSnapshot().Sub(send0)
	recvD := r.recv.Proc().SPCSnapshot().Sub(recv0)
	r.account(traced.messages, recv0, rep)

	costs, err := runLayers(layers)
	if err != nil {
		return 0, err
	}

	msgs := float64(traced.messages)
	W := float64(spec.window)
	rep.note("traced section: %d msgs in %.3f s; untraced: %d msgs in %.3f s",
		traced.messages, traced.elapsed.Seconds(), plain.messages, plain.elapsed.Seconds())
	rep.add("core.isend_ns", str.mean(spanIsend), "ns", fmt.Sprintf("(mean of %d spans)", str.n[spanIsend]))
	rep.add("core.irecv_ns", rtr.mean(spanIrecv), "ns", fmt.Sprintf("(mean of %d spans)", rtr.n[spanIrecv]))
	rep.add("core.waitall_send_ns_per_msg", str.mean(spanWaitSend)/W, "ns", fmt.Sprintf("(%d spans / W=%d)", str.n[spanWaitSend], spec.window))
	rep.add("core.waitall_recv_ns_per_msg", rtr.mean(spanWaitRecv)/W, "ns", fmt.Sprintf("(%d spans / W=%d)", rtr.n[spanWaitRecv], spec.window))
	selfPerWindow := 0.0
	if n := str.n[spanSendWindow]; n > 0 {
		selfPerWindow = float64(str.selfNs) / float64(n)
	}
	rep.add("core.window_self_ns", selfPerWindow, "ns", fmt.Sprintf("(sender window minus its child spans, mean of %d windows)", str.n[spanSendWindow]))

	walk := segmentRatios(traced.spcs, spc.MatchWalkElements, spc.MatchAttempts)
	rep.add("match.walk_per_attempt", ratio(recvD.Get(spc.MatchWalkElements), recvD.Get(spc.MatchAttempts)), "count",
		fmt.Sprintf("(%d elements / %d attempts; per-segment %s)", recvD.Get(spc.MatchWalkElements), recvD.Get(spc.MatchAttempts), walk))
	unexp := segmentRatios(traced.spcs, spc.UnexpectedMessages, spc.MessagesReceived)
	rep.add("match.unexpected_ratio", ratio(recvD.Get(spc.UnexpectedMessages), recvD.Get(spc.MessagesReceived)), "ratio",
		fmt.Sprintf("(%d unexpected / %d received; per-segment %s)", recvD.Get(spc.UnexpectedMessages), recvD.Get(spc.MessagesReceived), unexp))
	calls := sendD.Get(spc.ProgressCalls) + recvD.Get(spc.ProgressCalls)
	fails := sendD.Get(spc.ProgressTryLockFail) + recvD.Get(spc.ProgressTryLockFail)
	rep.add("progress.calls_per_msg", float64(calls)/msgs, "count", fmt.Sprintf("(%d calls, both ranks / %d msgs)", calls, traced.messages))
	rep.add("progress.trylock_fail_ratio", ratio(fails, calls), "ratio", fmt.Sprintf("(%d failed try-locks / %d calls)", fails, calls))
	empty, acq := sendD.Get(spc.FreeListEmpty), sendD.Get(spc.FreeListAcquires)
	rep.add("cri.freelist_empty_ratio", ratio(empty, empty+acq), "ratio", fmt.Sprintf("(%d empty / %d send acquisitions)", empty, empty+acq))
	if err := addLinkIO(rep); err != nil {
		return 0, err
	}

	addLayerCosts(costs, rep)
	sendNs := float64(str.sum[spanSendWindow]) / msgs
	recvNs := float64(rtr.sum[spanRecvWindow]) / msgs
	addBudget(name, costs, sendNs, recvNs, rep)
	return traceOverhead(plain.messages, plain.elapsed, traced.messages, traced.elapsed), nil
}

// addLinkIO reports the system calls and bytes per message of an isolated
// loopback tcpnet link, and the connections it opened. Every traced run
// measures it, whatever its workload, so the link's cost is on record next
// to the other layers'.
func addLinkIO(rep *report) error {
	l, err := linkIO(linkMessages)
	if err != nil {
		return fmt.Errorf("loopback link: %w", err)
	}
	d := l.io
	n := float64(linkMessages)
	rep.add("tcpnet.writes_per_msg", float64(d.syscw)/n, "count", fmt.Sprintf("(syscw %d / %d msgs on a loopback link; kernel count)", d.syscw, linkMessages))
	rep.add("tcpnet.reads_per_msg", float64(d.syscr)/n, "count", fmt.Sprintf("(syscr %d / %d msgs on a loopback link; kernel count)", d.syscr, linkMessages))
	rep.add("tcpnet.wire_bytes_per_msg", float64(d.wchar)/n, "B", fmt.Sprintf("(wchar %d / %d msgs of %d-byte payload)", d.wchar, linkMessages, tcpPayload))
	rep.add("tcpnet.conns_opened", float64(l.conns), "count", "(conns_opened of the loopback link's two devices, since link build)")
	return nil
}

// procIOSelfCost measures what one readProcIO call adds to the counters,
// so the link's own reads are not inflated by the measurement.
func procIOSelfCost() (procIO, error) {
	a, err := readProcIO()
	if err != nil {
		return procIO{}, err
	}
	b, err := readProcIO()
	if err != nil {
		return procIO{}, err
	}
	return b.sub(a), nil
}

// layerTime is the benchtime per isolated call: the layers' share of the
// run split over the calls, halved because testing.Benchmark's ramp-up
// runs roughly double it.
func layerTime(dur time.Duration) time.Duration {
	return time.Duration(float64(dur) * layersShare / float64(len(layerCalls)) / 2)
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// segmentRatios summarizes num/den over the per-segment SPC deltas as
// "min/median/max over n segments", the within-run spread of a count that
// depends on timing.
func segmentRatios(segs []spc.Snapshot, num, den spc.Counter) string {
	var v []float64
	for _, c := range segs {
		if c.Get(den) > 0 {
			v = append(v, float64(c.Get(num))/float64(c.Get(den)))
		}
	}
	if len(v) == 0 {
		return "n/a"
	}
	sort.Float64s(v)
	return fmt.Sprintf("%.4f/%.4f/%.4f over %d segments", v[0], median(v), v[len(v)-1], len(v))
}

func traceOverhead(plainN int64, plainD time.Duration, tracedN int64, tracedD time.Duration) float64 {
	u := float64(plainN) / plainD.Seconds()
	t := float64(tracedN) / tracedD.Seconds()
	if u == 0 {
		return 0
	}
	return 1 - t/u
}

func addLayerCosts(costs map[string]layerCost, rep *report) {
	for _, c := range layerCalls {
		lc := costs[c.name]
		rep.add(c.name+".ns_per_op", lc.ns, "ns", "")
		rep.add(c.name+".allocs_per_op", lc.allocs, "count", "")
		rep.add(c.name+".bytes_per_op", lc.bytes, "B", "")
	}
}

// budgetPaths lists, per real workload, the isolated calls summed for the
// sender's and the receiver's per-message path.
var budgetPaths = map[string][2][]string{
	"pair-fabric": {
		{"cri.acquire_send", "fabric.send_poll"},
		{"progress.pass_one", "match.sharded_post_deliver"},
	},
	"pair-tcp": {
		{"cri.acquire_send", "tcpnet.send_poll"},
		{"progress.pass_one", "match.sharded_post_deliver"},
	},
	"match-deep": {
		{"cri.acquire_send", "fabric.send_poll"},
		{"progress.pass_one", "match.list_post_deliver_deep"},
	},
	"pair-fabric-observed": {
		{"cri.acquire_send", "fabric.send_poll", "flight.record", "latency.observe_stage", "telemetry.observe", "spc.inc", "prof.lock_unlock", "trace.emit"},
		{"progress.pass_one", "match.sharded_post_deliver", "flight.record", "latency.observe_stage", "telemetry.observe", "spc.inc", "prof.lock_unlock", "trace.emit"},
	},
}

// addBudget prints the budget row: per side, the summed isolated layer
// costs beside the traced per-message time, and the unattributed gap.
func addBudget(workload string, costs map[string]layerCost, sendNs, recvNs float64, rep *report) {
	paths, ok := budgetPaths[workload]
	sides := []struct {
		name   string
		traced float64
	}{{"send", sendNs}, {"recv", recvNs}}
	for i, s := range sides {
		layers := 0.0
		if ok {
			for _, name := range paths[i] {
				layers += costs[name].ns
			}
		}
		gap := s.traced - layers
		share := 0.0
		if s.traced > 0 {
			share = gap / s.traced
		}
		rep.add("budget."+s.name+"_layers_ns", layers, "ns", fmt.Sprintf("(sum of %v)", paths[i]))
		rep.add("budget."+s.name+"_traced_ns", s.traced, "ns", "(traced window time per message)")
		rep.add("budget."+s.name+"_gap_ns", gap, "ns", fmt.Sprintf("(unattributed: %.1f%% of %.1f ns traced)", 100*share, s.traced))
	}
}

func runModel(cfg config, dur time.Duration, rep *report) error {
	var times []float64
	var pts []modelPoint
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		p, err := loadModel(cfg.baseline)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		// Warm-up: the cheapest point, checked like every other.
		_, _, err = p[0].run()
		times = append(times, time.Since(t0).Seconds())
		rep.attempted++
		if err != nil {
			rep.fail(1, err)
		}
		pts = p
	}
	if cfg.trace {
		return tracedModel(cfg, dur, pts, rep)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	l := runModelLoop(pts, dur, nil)
	runtime.ReadMemStats(&m1)
	allocs, bytes := m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	live := liveHeap()
	rep.attempted += l.attempted
	rep.fail(l.failed, l.firstErr)

	// Each point's wall time is its median over the run's sweeps; the rate
	// is one sweep's simulated messages over the sum of those medians.
	pointNs := l.medianPointNs()
	var sweepNs, sweepMsgs float64
	for i, ns := range pointNs {
		sweepNs += ns
		sweepMsgs += float64(pts[i].want.Messages)
	}
	sweeps := len(l.pointNs[0])
	ops := float64(l.messages)
	rep.add("ops_per_s", sweepMsgs/sweepNs*1e9, "1/s",
		fmt.Sprintf("(%.0f simulated msgs per sweep / %.3f s, per-point medians over %d sweeps)", sweepMsgs, sweepNs/1e9, sweeps))
	sorted := append([]float64(nil), pointNs...)
	sort.Float64s(sorted)
	note := fmt.Sprintf("(one window = one simulated point; nearest rank over the %d per-point medians)", len(pointNs))
	rep.add("window_p50_us", median(sorted)/1e3, "us", note)
	rep.add("window_p90_us", sorted[int(0.9*float64(len(sorted))+0.5)-1]/1e3, "us", note)
	rep.add("allocs_per_op", float64(allocs)/ops, "count", fmt.Sprintf("(%d allocs / %d simulated msgs)", allocs, l.messages))
	rep.add("bytes_per_op", float64(bytes)/ops, "B", fmt.Sprintf("(%d B / %d simulated msgs)", bytes, l.messages))
	rep.add("live_heap_mb", float64(live)/(1<<20), "MB", "(HeapAlloc after runtime.GC)")
	rep.add("setup_s", median(times), "s", fmt.Sprintf("(median of %d: load %s + one warm-up point)", setupReps, cfg.baseline))
	return nil
}

// tracedModel is model-sweep's --trace 1 run. trace_overhead compares a
// model loop with a span around each point against one without. The model
// makes no runtime calls, so the runtime's per-layer metrics come from the
// pair-fabric loop as the reference runtime, with its budget row.
func tracedModel(cfg config, dur time.Duration, pts []modelPoint, rep *report) error {
	half := (1 - layersShare) / 2
	plain := runModelLoop(pts, time.Duration(float64(dur)*half*untracedShare/(1-layersShare)), nil)
	traced := runModelLoop(pts, time.Duration(float64(dur)*half*tracedShare/(1-layersShare)), &sideTracer{})
	rep.attempted += plain.attempted + traced.attempted
	rep.fail(plain.failed, plain.firstErr)
	rep.fail(traced.failed, traced.firstErr)
	ref, err := findWorkload("pair-fabric")
	if err != nil {
		return err
	}
	rep.note("runtime layers: measured on the %s loop, the model makes no runtime calls", ref.name)
	refOverhead, err := tracedRuntime(ref.name, ref.real, makeInputs(ref.real, cfg.seed), time.Duration(float64(dur)*half), layerTime(dur), rep)
	if err != nil {
		return err
	}
	rep.add("trace_overhead", traceOverhead(plain.messages, plain.elapsed, traced.messages, traced.elapsed), "ratio",
		fmt.Sprintf("(1 - traced/untraced simulated msgs per wall s; %s loop: %.4f)", ref.name, refOverhead))
	return nil
}
