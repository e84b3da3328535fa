package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// corruptExpect applies f to a deep copy of the inputs and makes the
// checker expect the result (tests use it to prove the checks fire).
func (r *rig) corruptExpect(f func(*inputs)) {
	ex := r.in
	ex.perms = nil
	for _, p := range r.in.perms {
		ex.perms = append(ex.perms, append([]int32(nil), p...))
	}
	ex.payloads = nil
	for _, p := range r.in.payloads {
		ex.payloads = append(ex.payloads, append([]byte(nil), p...))
	}
	f(&ex)
	r.expect = ex
}

// runRigWith sets up one rig of the named workload, makes the checker
// expect the inputs as altered by corrupt, runs it briefly and returns the
// report's failed and attempted counts.
func runRigWith(t *testing.T, name string, corrupt func(*inputs)) (failed, attempted int64) {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport(io.Discard)
	r, _, err := setupRig(w.real, makeInputs(w.real, 7), rep)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	if corrupt != nil {
		r.corruptExpect(corrupt)
	}
	recv0 := r.recv.Proc().SPCSnapshot()
	res, err := r.measure(50*time.Millisecond, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	r.account(res.messages, recv0, rep)
	return rep.failed, rep.attempted
}

func TestChecksPassOnCorrectRuns(t *testing.T) {
	for _, name := range []string{"pair-fabric", "pair-tcp", "match-deep"} {
		if failed, attempted := runRigWith(t, name, nil); failed != 0 || attempted == 0 {
			t.Errorf("%s: %d failed of %d attempted, want 0 of > 0", name, failed, attempted)
		}
	}
}

// TestStalledSenderEndsRun stands for a lost send completion: the sender
// blocks before its WaitAll, and the chunk must end with an error naming
// the sender once the hang timer fires.
func TestStalledSenderEndsRun(t *testing.T) {
	w, err := findWorkload("pair-fabric")
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := setupRig(w.real, makeInputs(w.real, 7), newReport(io.Discard))
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	release := make(chan struct{})
	r.hang = 200 * time.Millisecond
	r.stallSend = func() { <-release }
	err = r.runChunk(1)
	if err == nil || !strings.Contains(err.Error(), "sender did not complete") {
		t.Fatalf("stalled sender: got %v, want a sender timeout", err)
	}
	// Let the sender finish its window so close does not leave it behind.
	close(release)
	if err := <-r.sendDone; err != nil {
		t.Fatal(err)
	}
}

func TestWrongTagRaisesFailRatio(t *testing.T) {
	failed, attempted := runRigWith(t, "pair-fabric", func(in *inputs) { in.tag++ })
	if failed == 0 {
		t.Fatalf("expecting the wrong tag: 0 failed of %d", attempted)
	}
}

func TestWrongPermutationTagRaisesFailRatio(t *testing.T) {
	failed, _ := runRigWith(t, "match-deep", func(in *inputs) {
		in.perms[0][0], in.perms[0][1] = in.perms[0][1], in.perms[0][0]
	})
	if failed == 0 {
		t.Fatal("expecting swapped permutation tags: 0 failed")
	}
}

func TestFlippedPayloadByteRaisesFailRatio(t *testing.T) {
	failed, attempted := runRigWith(t, "pair-tcp", func(in *inputs) { in.payloads[3][5] ^= 0x10 })
	if failed == 0 {
		t.Fatalf("expecting a flipped payload byte: 0 failed of %d", attempted)
	}
	// Only the slots that carry payload 3 can fail.
	if max := attempted/numPayloads + 1; failed > max {
		t.Fatalf("%d failed, more than the %d messages carrying payload 3", failed, max)
	}
}

func TestAlteredVirtualRateRaisesFailRatio(t *testing.T) {
	pts, err := loadModel("../BENCH_4.json")
	if err != nil {
		t.Fatal(err)
	}
	// The 1-thread points are the cheap ones.
	var cheap []modelPoint
	for _, p := range pts {
		if p.threads == 1 {
			cheap = append(cheap, p)
		}
	}
	l := runModelLoop(cheap, time.Nanosecond, nil)
	if l.failed != 0 {
		t.Fatalf("committed points: %d failed: %v", l.failed, l.firstErr)
	}
	cheap[0].want.MessagesPerSec *= 1.000001
	l = runModelLoop(cheap, time.Nanosecond, nil)
	if l.failed != 1 || l.attempted != int64(len(cheap)) {
		t.Fatalf("altered rate: %d failed of %d, want 1 of %d", l.failed, l.attempted, len(cheap))
	}
}

func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		if w.real == nil {
			continue
		}
		if !reflect.DeepEqual(makeInputs(w.real, 42), makeInputs(w.real, 42)) {
			t.Errorf("%s: the same seed gave different inputs", w.name)
		}
	}
	deep, _ := findWorkload("match-deep")
	a, b := makeInputs(deep.real, 1), makeInputs(deep.real, 2)
	if reflect.DeepEqual(a.perms, b.perms) {
		t.Error("match-deep: seeds 1 and 2 gave the same tag permutations")
	}
	for k, p := range a.perms {
		s := append([]int32(nil), p...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		for i, v := range s {
			if v != int32(i) {
				t.Fatalf("perm %d is not a permutation of 0..W-1", k)
			}
		}
	}
	tcp, _ := findWorkload("pair-tcp")
	if reflect.DeepEqual(makeInputs(tcp.real, 1).payloads, makeInputs(tcp.real, 2).payloads) {
		t.Error("pair-tcp: seeds 1 and 2 gave the same payloads")
	}
}

// runMetrics runs the benchmark as the command does and returns the JSON
// result's metrics.
func runMetrics(t *testing.T, cfg config) map[string]metric {
	t.Helper()
	if cfg.baseline == "" {
		cfg.baseline = "../BENCH_4.json"
	}
	rep, err := run(cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.correct() {
		t.Fatalf("%s: run not correct: %d failed of %d: %v", cfg.workload, rep.failed, rep.attempted, rep.firstErr)
	}
	return rep.metrics
}

func TestTCPWriteCountRepeats(t *testing.T) {
	var writes, reads []float64
	for i := 0; i < 2; i++ {
		d, err := linkIO(linkMessages)
		if err != nil {
			t.Fatal(err)
		}
		if d.conns != 1 {
			t.Errorf("run %d: the link opened %d connections, want 1", i, d.conns)
		}
		writes = append(writes, float64(d.io.syscw)/linkMessages)
		reads = append(reads, float64(d.io.syscr)/linkMessages)
	}
	// Each message is one write and two successful reads (length prefix,
	// then frame). Writes repeat: the netpoller's rare wake-up writes are
	// the only others. Reads do not: the kernel also counts every read
	// that finds the socket drained, and how often the reader catches up
	// with the sender depends on timing.
	for i := range writes {
		if math.Abs(writes[i]-1) > 0.001 || reads[i] < 2 {
			t.Errorf("run %d: %.4f writes and %.4f reads per message, want 1 and at least 2", i, writes[i], reads[i])
		}
	}
	if math.Abs(writes[0]-writes[1]) > 0.001 {
		t.Errorf("writes per message differ across runs: %v", writes)
	}
}

// TestMetricNamesMatchBenchmarkFile checks that an untraced run prints
// exactly the end-to-end metrics BENCHMARK.json declares, and a traced run
// exactly the per-layer ones, with the declared units.
func TestMetricNamesMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var bf struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, err := findWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	want := func(ds []decl) map[string]string {
		m := map[string]string{}
		for _, d := range ds {
			m[d.Name] = d.Unit
		}
		return m
	}
	got := func(ms map[string]metric) map[string]string {
		m := map[string]string{}
		for k, v := range ms {
			m[k] = v.Unit
		}
		return m
	}
	for _, name := range []string{"pair-fabric", "model-sweep"} {
		for _, traced := range []bool{false, true} {
			m := got(runMetrics(t, config{workload: name, seed: 1, seconds: 0.5, trace: traced}))
			w := want(bf.EndToEnd)
			if traced {
				w = want(bf.PerLayer)
			}
			if !reflect.DeepEqual(m, w) {
				t.Errorf("%s trace=%v: metrics %v, BENCHMARK.json declares %v", name, traced, m, w)
			}
		}
	}
}
