package main

import (
	"flag"
	"fmt"
	"testing"
	"time"

	"repro/internal/cri"
	"repro/internal/fabric"
	"repro/internal/flight"
	"repro/internal/hw"
	"repro/internal/latency"
	"repro/internal/match"
	"repro/internal/prof"
	"repro/internal/progress"
	"repro/internal/ringbuf"
	"repro/internal/sim"
	"repro/internal/spc"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/tcpnet"
)

// layerCall is one isolated call into a lower layer's public functions.
type layerCall struct {
	name string
	fn   func(b *testing.B)
}

// layerCost is one isolated call's cost per operation.
type layerCost struct {
	ns, allocs, bytes float64
}

// layerCalls lists the isolated calls, grouped by the workload whose
// budget they feed.
var layerCalls = []layerCall{
	{"transport.append_mux_frame", benchAppendMuxFrame},
	{"transport.decode_mux_frame", benchDecodeMuxFrame},
	{"tcpnet.send_poll", benchTCPSendPoll},
	{"fabric.send_poll", benchFabricSendPoll},
	{"ringbuf.mpsc_push_pop", benchMPSCPushPop},
	{"cri.acquire_send", benchAcquireSend},
	{"progress.pass_empty", benchPassEmpty},
	{"progress.pass_one", benchPassOne},
	{"match.sharded_post_deliver", benchPostDeliver(newSharded, 0)},
	{"match.list_post_deliver", benchPostDeliver(newList, 0)},
	{"match.list_post_deliver_deep", benchPostDeliver(newList, deepQueue)},
	{"match.hash_post_deliver", benchPostDeliver(newHash, 0)},
	{"flight.record", benchFlightRecord},
	{"latency.observe_stage", benchObserveStage},
	{"telemetry.observe", benchTelemetryObserve},
	{"spc.inc", benchSPCInc},
	{"prof.lock_unlock", benchProfLockUnlock},
	{"trace.emit", benchTraceEmit},
	{"sim.yield", benchSimYield},
}

// deepQueue is the posted-queue depth of match.list_post_deliver_deep: the
// receives of one match-deep window minus the one being matched.
const deepQueue = 255

// tcpPayload is the payload size of the codec and tcpnet calls, the
// pair-tcp message size.
const tcpPayload = 64

// batch is how many messages the send_poll calls inject before draining,
// the pair workloads' window.
const batch = 128

// runLayers times every isolated call for about per each and returns the
// costs by name. testing.Benchmark picks the iteration count.
func runLayers(per time.Duration) (map[string]layerCost, error) {
	testing.Init()
	if err := flag.Set("test.benchtime", per.String()); err != nil {
		return nil, err
	}
	out := make(map[string]layerCost, len(layerCalls))
	for _, c := range layerCalls {
		r := testing.Benchmark(c.fn)
		if r.N == 0 {
			return nil, fmt.Errorf("isolated call %s failed", c.name)
		}
		out[c.name] = layerCost{
			ns:     float64(r.T.Nanoseconds()) / float64(r.N),
			allocs: float64(r.MemAllocs) / float64(r.N),
			bytes:  float64(r.MemBytes) / float64(r.N),
		}
	}
	return out, nil
}

var (
	sinkBytes  []byte
	sinkPacket *transport.Packet
	sinkComps  []match.Completion
)

func eagerEnv(seq uint32) transport.Envelope {
	return transport.Envelope{Src: 0, Dst: 1, Tag: 1, Comm: 1, Seq: seq, Kind: transport.KindEager}
}

func benchAppendMuxFrame(b *testing.B) {
	p := transport.NewPacket(eagerEnv(0), make([]byte, tcpPayload), nil)
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.AppendMuxFrame(buf[:0], 1)
	}
	sinkBytes = buf
}

func benchDecodeMuxFrame(b *testing.B) {
	p := transport.NewPacket(eagerEnv(0), make([]byte, tcpPayload), nil)
	frame := p.AppendMuxFrame(nil, 1)[4:] // the reader strips the length prefix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, q, err := transport.DecodeMuxFrame(frame)
		if err != nil {
			b.Fatal(err)
		}
		sinkPacket = q
	}
}

// loopbackLink is a tcpnet link between two single-context devices on
// loopback: the path every pair-tcp message takes below the runtime.
type loopbackLink struct {
	d0, d1 transport.Device
	tx, rx transport.Context
	ep     transport.Endpoint
	// ctr receives both devices' counters.
	ctr *spc.Set
}

func newLoopbackLink() (*loopbackLink, error) {
	nets, err := tcpnet.NewLoopback(2)
	if err != nil {
		return nil, err
	}
	l := &loopbackLink{ctr: spc.NewSet()}
	cfg := transport.DeviceConfig{Counters: l.ctr}
	if l.d0, err = nets[0].NewDevice(0, hw.Fast(), cfg); err != nil {
		return nil, err
	}
	if l.d1, err = nets[1].NewDevice(1, hw.Fast(), cfg); err != nil {
		l.d0.Close()
		return nil, err
	}
	if l.tx, err = l.d0.CreateContext(0); err == nil {
		if l.rx, err = l.d1.CreateContext(0); err == nil {
			l.ep, err = l.d0.Connect(l.tx, 1, 0)
		}
	}
	if err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

func (l *loopbackLink) close() {
	l.d0.Close()
	l.d1.Close()
}

// benchTCPSendPoll sends batches of 64-byte packets over a loopback link
// and polls the peer context until each batch has arrived: one op is one
// Endpoint.Send plus its share of the peer's Context.Poll, so it covers the
// frame write, the reader's two reads and decode, and the ring hand-off.
func benchTCPSendPoll(b *testing.B) {
	l, err := newLoopbackLink()
	if err != nil {
		b.Fatal(err)
	}
	defer l.close()
	sendPoll(b, l.ep.Send, transport.NewPacket(eagerEnv(0), make([]byte, tcpPayload), nil), l.tx, l.rx)
}

// linkMessages is how many messages linkIO sends.
const linkMessages = 20000

// linkStats is what linkIO measures on a loopback link.
type linkStats struct {
	// io is the /proc/self/io delta of the measured messages.
	io procIO
	// conns is the devices' conns_opened count since the link was built.
	conns int64
}

// linkIO sends n 64-byte messages over a fresh loopback link, after one
// that establishes the connection, and returns the /proc/self/io deltas
// they caused (the link's system calls and bytes written) and the
// connections the link opened.
func linkIO(n int) (linkStats, error) {
	l, err := newLoopbackLink()
	if err != nil {
		return linkStats{}, err
	}
	defer l.close()
	p := transport.NewPacket(eagerEnv(0), make([]byte, tcpPayload), nil)
	if err := sendBatches(l.ep.Send, p, l.tx, l.rx, 1); err != nil {
		return linkStats{}, err
	}
	self, err := procIOSelfCost()
	if err != nil {
		return linkStats{}, err
	}
	io0, err := readProcIO()
	if err != nil {
		return linkStats{}, err
	}
	if err := sendBatches(l.ep.Send, p, l.tx, l.rx, n); err != nil {
		return linkStats{}, err
	}
	io1, err := readProcIO()
	if err != nil {
		return linkStats{}, err
	}
	return linkStats{io: io1.sub(io0).sub(self), conns: l.ctr.Snapshot().Get(spc.ConnsOpened)}, nil
}

// sendBatches sends p n times in batches, draining the receiving context
// rx and the sender's completions tx after each batch.
func sendBatches(send func(*transport.Packet) error, p *transport.Packet, tx, rx transport.Context, n int) error {
	noop := func(transport.CQE) {}
	for i := 0; i < n; i += batch {
		m := min(batch, n-i)
		for k := 0; k < m; k++ {
			if err := send(p); err != nil {
				return err
			}
		}
		for got := 0; got < m; got += rx.Poll(noop, batch) {
		}
		for got := 0; got < m; got += tx.Poll(noop, batch) {
		}
	}
	return nil
}

// sendPoll times sendBatches, after one send that establishes lazily
// created state outside the timer.
func sendPoll(b *testing.B, send func(*transport.Packet) error, p *transport.Packet, tx, rx transport.Context) {
	if err := sendBatches(send, p, tx, rx, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := sendBatches(send, p, tx, rx, b.N); err != nil {
		b.Fatal(err)
	}
}

func benchFabricSendPoll(b *testing.B) {
	d := fabric.NewDevice(hw.Fast())
	defer d.Close()
	rx, _ := d.CreateContext(1 << 12)
	tx, _ := d.CreateContext(1 << 12)
	ep := fabric.NewEndpoint(tx, rx)
	sendPoll(b, ep.Send, transport.NewPacket(eagerEnv(0), nil, nil), tx, rx)
}

func benchMPSCPushPop(b *testing.B) {
	q := ringbuf.NewMPSC[*transport.Packet](1024)
	p := transport.NewPacket(eagerEnv(0), nil, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(p)
		sinkPacket, _ = q.Pop()
	}
}

// newPool builds a two-instance free-list pool over fabric contexts, the
// pair workloads' CRI configuration.
func newPool(b *testing.B) (*cri.Pool, *fabric.Device) {
	d := fabric.NewDevice(hw.Fast())
	var ins []*cri.Instance
	for i := 0; i < 2; i++ {
		ctx, err := d.CreateContext(1 << 12)
		if err != nil {
			b.Fatal(err)
		}
		ins = append(ins, cri.NewInstance(i, ctx, nil))
	}
	pool, err := cri.NewPool(ins, cri.FreeList)
	if err != nil {
		b.Fatal(err)
	}
	return pool, d
}

func benchAcquireSend(b *testing.B) {
	pool, d := newPool(b)
	defer d.Close()
	ts := cri.NewThreadState(-1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, release := pool.AcquireSend(&ts)
		release()
	}
}

func benchPassEmpty(b *testing.B) {
	pool, d := newPool(b)
	defer d.Close()
	e := progress.New(progress.Concurrent, pool, func(*prof.ThreadClock, *cri.Instance, transport.CQE) {}, nil)
	ts := cri.NewThreadState(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Progress(&ts)
	}
}

// benchPassOne injects one packet into instance 0's context from an outside
// context, then makes one progress pass that extracts it. The op includes
// that fabric inject.
func benchPassOne(b *testing.B) {
	pool, d := newPool(b)
	defer d.Close()
	handled := 0
	e := progress.New(progress.Concurrent, pool, func(*prof.ThreadClock, *cri.Instance, transport.CQE) { handled++ }, nil)
	ts := cri.NewThreadState(0)
	src, err := d.CreateContext(1 << 12)
	if err != nil {
		b.Fatal(err)
	}
	dst, _ := pool.Get(0).Context().(*fabric.Context)
	ep := fabric.NewEndpoint(src, dst)
	p := transport.NewPacket(eagerEnv(0), nil, nil)
	noop := func(transport.CQE) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ep.Send(p); err != nil {
			b.Fatal(err)
		}
		e.Progress(&ts)
		if i%batch == batch-1 {
			for src.Poll(noop, batch) > 0 {
			}
		}
	}
	b.StopTimer()
	if handled != b.N {
		b.Fatalf("progress handled %d of %d packets", handled, b.N)
	}
}

func newSharded() match.Matcher {
	return match.NewSharded(1, 2, 32, hw.Fast().Scaled(), match.NopMeter{}, nil)
}

func newList() match.Matcher {
	return match.NewEngine(1, 2, hw.Fast().Scaled(), match.NopMeter{}, nil)
}

func newHash() match.Matcher {
	return match.NewHashEngine(1, 2, hw.Fast().Scaled(), match.NopMeter{}, nil)
}

// benchPostDeliver posts a receive and delivers its matching packet, with
// depth unrelated receives posted ahead of it. Each op allocates the Recv
// and the Packet, as the runtime does per message.
func benchPostDeliver(newEngine func() match.Matcher, depth int) func(b *testing.B) {
	return func(b *testing.B) {
		e := newEngine()
		for d := 0; d < depth; d++ {
			e.PostRecv(&match.Recv{Source: 0, Tag: int32(1000 + d)})
		}
		comps := make([]match.Completion, 0, 4)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.PostRecv(&match.Recv{Source: 0, Tag: 1})
			comps = e.Deliver(transport.NewPacket(eagerEnv(uint32(i)), nil, nil), comps[:0])
			if len(comps) != 1 {
				b.Fatalf("deliver %d: %d completions", i, len(comps))
			}
		}
		sinkComps = comps
	}
}

func benchFlightRecord(b *testing.B) {
	ring := flight.NewRecorder(1024).NewRing("perfbench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring.Record(flight.KindSendPost, 1, 0, int32(i))
	}
}

func benchObserveStage(b *testing.B) {
	r := latency.NewRecorder(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.ObserveStage(latency.StageWireWrite, int64(i&4095))
	}
}

func benchTelemetryObserve(b *testing.B) {
	h := telemetry.NewHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ObserveNs(int64(i & 4095))
	}
}

func benchSPCInc(b *testing.B) {
	s := spc.NewSet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Inc(spc.MessagesSent)
	}
}

func benchProfLockUnlock(b *testing.B) {
	var m prof.Mutex
	m.Bind(prof.New().NewSite("perfbench", 0, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lock()
		m.Unlock()
	}
}

func benchTraceEmit(b *testing.B) {
	t := trace.New(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Emit(trace.KindSendInject, 0, int32(i))
	}
}

// benchSimYield is one virtual-time process yielding to the executive: the
// scheduling hand-off every simulated shared-state touch pays.
func benchSimYield(b *testing.B) {
	env := sim.NewEnv()
	n := b.N
	env.Go("yield", 0, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Advance(1)
			p.Yield()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	env.Run()
}
