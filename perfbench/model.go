package main

import (
	"fmt"
	"os"
	"time"

	"repro/internal/benchjson"
	"repro/internal/designs"
	"repro/internal/hw"
	"repro/internal/simnet"
)

// The model-sweep subset of the committed trajectory: three thread-mode
// designs at the paper's low, middle and high thread counts.
var (
	modelDesigns = []designs.Design{designs.OMPIThread, designs.OMPIThreadCRIFull, designs.OMPIThreadCRILockFree}
	modelThreads = []int{1, 8, 20}
)

// modelPoint is one simulated point and the committed result it must
// reproduce exactly.
type modelPoint struct {
	design  designs.Design
	threads int
	cfg     simnet.Config
	want    benchjson.Point
}

// loadModel reads the committed trajectory at path and resolves the
// model-sweep points against it.
func loadModel(path string) ([]modelPoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := benchjson.Parse(data)
	if err != nil {
		return nil, err
	}
	if f.Machine != "alembert" {
		return nil, fmt.Errorf("%s: machine %q, want alembert", path, f.Machine)
	}
	base := simnet.Config{
		Machine: hw.AlembertHaswell(), Window: f.Sweep.Window,
		Iters: f.Sweep.Iters, MsgSize: f.Sweep.MsgSizeBytes,
	}
	var pts []modelPoint
	for _, d := range modelDesigns {
		var dr *benchjson.DesignResult
		for i := range f.Designs {
			if f.Designs[i].Slug == d.Slug() {
				dr = &f.Designs[i]
			}
		}
		if dr == nil {
			return nil, fmt.Errorf("%s: no design %s", path, d.Slug())
		}
		for _, th := range modelThreads {
			var want *benchjson.Point
			for i := range dr.Points {
				if dr.Points[i].Threads == th {
					want = &dr.Points[i]
				}
			}
			if want == nil {
				return nil, fmt.Errorf("%s: %s has no %d-thread point", path, d.Slug(), th)
			}
			cfg := d.SimConfig(base, f.Sweep.Instances)
			cfg.Pairs = th
			cfg.Latency = f.Sweep.Latency && !d.IsProcessMode()
			pts = append(pts, modelPoint{design: d, threads: th, cfg: cfg, want: *want})
		}
	}
	return pts, nil
}

// run simulates the point and reports its message count, whether it
// reproduced the committed result exactly, and the wall time it took.
func (p *modelPoint) run() (int64, time.Duration, error) {
	t0 := time.Now()
	res := simnet.RunMultirate(p.cfg)
	d := time.Since(t0)
	if res.Rate != p.want.MessagesPerSec || res.Messages != p.want.Messages ||
		res.Makespan.Nanoseconds() != p.want.MakespanNs {
		return res.Messages, d, fmt.Errorf("%s at %d threads: %v msg/s (%d msgs, %d ns), committed %v msg/s (%d msgs, %d ns)",
			p.design.Slug(), p.threads, res.Rate, res.Messages, res.Makespan.Nanoseconds(),
			p.want.MessagesPerSec, p.want.Messages, p.want.MakespanNs)
	}
	return res.Messages, d, nil
}

// modelLoop is the outcome of whole sweeps run until a deadline.
type modelLoop struct {
	messages  int64
	attempted int64
	failed    int64
	firstErr  error
	elapsed   time.Duration
	// pointNs[i] holds the wall time of every run of point i.
	pointNs [][]float64
}

// runModelLoop runs whole sweeps, at least one, until dur has elapsed,
// recording each point's wall time and, when tr is non-nil, a span around
// it.
func runModelLoop(pts []modelPoint, dur time.Duration, tr *sideTracer) modelLoop {
	l := modelLoop{pointNs: make([][]float64, len(pts))}
	start := time.Now()
	for first := true; first || time.Since(start) < dur; first = false {
		for i := range pts {
			s := tr.begin()
			n, d, err := pts[i].run()
			tr.window(spanSendWindow, time.Since(s))
			l.messages += n
			l.attempted++
			if err != nil {
				l.failed++
				if l.firstErr == nil {
					l.firstErr = err
				}
			}
			l.pointNs[i] = append(l.pointNs[i], float64(d.Nanoseconds()))
		}
	}
	l.elapsed = time.Since(start)
	return l
}

// medianPointNs returns each point's median wall time over its runs.
func (l *modelLoop) medianPointNs() []float64 {
	m := make([]float64, len(l.pointNs))
	for i, v := range l.pointNs {
		m[i] = median(v)
	}
	return m
}
