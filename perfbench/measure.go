package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// reservoir keeps a uniform sample of at most cap(samples) values (Vitter's
// algorithm R), so percentiles of an arbitrarily long run cost a fixed
// amount of memory allocated before the measured section.
type reservoir struct {
	samples []int64
	seen    int64
	rng     *rand.Rand
}

func newReservoir(capacity int) *reservoir {
	// The sampling stream is part of the measurement, not of the inputs,
	// so it does not depend on the workload seed.
	return &reservoir{samples: make([]int64, 0, capacity), rng: rand.New(rand.NewSource(1))}
}

func (r *reservoir) add(v int64) {
	r.seen++
	if len(r.samples) < cap(r.samples) {
		r.samples = append(r.samples, v)
		return
	}
	if i := r.rng.Int63n(r.seen); i < int64(len(r.samples)) {
		r.samples[i] = v
	}
}

// quantile returns the q-quantile of the kept samples (nearest rank).
func (r *reservoir) quantile(q float64) int64 {
	s := append([]int64(nil), r.samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s) == 0 {
		return 0
	}
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spanKind names the benchmark-side spans recorded around calls into core.
type spanKind uint8

const (
	spanIsend spanKind = iota
	spanWaitSend
	spanSendWindow
	spanIrecv
	spanWaitRecv
	spanRecvWindow
	numSpanKinds
)

// sideTracer records the spans of one side (one goroutine) as per-kind
// totals. Each window span is the parent of the call spans recorded since
// the previous window span closed. A nil *sideTracer records nothing, so
// the untraced loop pays one branch per call site.
type sideTracer struct {
	sum     [numSpanKinds]int64
	n       [numSpanKinds]int64
	childNs int64
	selfNs  int64
}

func (t *sideTracer) begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *sideTracer) end(k spanKind, start time.Time) {
	if t == nil {
		return
	}
	d := time.Since(start).Nanoseconds()
	t.sum[k] += d
	t.n[k]++
	t.childNs += d
}

// window closes a window span of duration d: its self time is d minus the
// child spans recorded since the previous window closed.
func (t *sideTracer) window(k spanKind, d time.Duration) {
	if t == nil {
		return
	}
	ns := d.Nanoseconds()
	t.sum[k] += ns
	t.n[k]++
	t.selfNs += ns - t.childNs
	t.childNs = 0
}

// mean returns the mean duration of spans of kind k in ns.
func (t *sideTracer) mean(k spanKind) float64 {
	if t == nil || t.n[k] == 0 {
		return 0
	}
	return float64(t.sum[k]) / float64(t.n[k])
}

// procIO is a snapshot of this process's /proc/self/io counters.
type procIO struct {
	syscr, syscw, wchar int64
}

// readProcIO reads /proc/self/io. The counters cover every thread of the
// process, so they count the loopback link's reads and writes no matter
// which goroutine issued them.
func readProcIO() (procIO, error) {
	f, err := os.Open("/proc/self/io")
	if err != nil {
		return procIO{}, err
	}
	defer f.Close()
	var p procIO
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		if err != nil {
			return procIO{}, fmt.Errorf("/proc/self/io %s: %w", k, err)
		}
		switch k {
		case "syscr":
			p.syscr = n
		case "syscw":
			p.syscw = n
		case "wchar":
			p.wchar = n
		}
	}
	return p, sc.Err()
}

func (a procIO) sub(b procIO) procIO {
	return procIO{a.syscr - b.syscr, a.syscw - b.syscw, a.wchar - b.wchar}
}
