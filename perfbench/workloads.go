package main

import (
	"fmt"
	"math/rand"

	"repro/internal/designs"
)

// workload is one named benchmark configuration. Exactly one of real and
// model is set.
type workload struct {
	name string
	real *realSpec
	// model marks the virtual-time sweep (model-sweep).
	model bool
}

// realSpec configures a closed-loop run against the live runtime: one
// sender thread and one receiver thread, a window of W outstanding
// messages, the next window only after WaitAll on both sides.
type realSpec struct {
	design designs.Design
	// tcp runs the pair as two distributed worlds over loopback TCP instead
	// of one world over the simulated fabric.
	tcp bool
	// window is W, the messages outstanding per WaitAll.
	window int
	// payload is the message size in bytes (0 = envelope only).
	payload int
	// permuteTags sends tags 0..W-1 in order and posts the receives in a
	// seeded permutation of that order (match-deep).
	permuteTags bool
	// observed turns every observability layer on.
	observed bool
	// instances is the CRI count per process.
	instances int
}

// workloads is the benchmark's workload table. BENCHMARK.json gates all
// but pair-tcp, which README.md explains, as it gives the reason for each.
var workloads = []workload{
	{
		name: "pair-fabric",
		real: &realSpec{design: designs.OMPIThreadCRILockFree, window: 128, instances: 2},
	},
	{
		name: "pair-tcp",
		real: &realSpec{design: designs.OMPIThreadCRILockFree, tcp: true, window: 128, payload: 64, instances: 2},
	},
	{
		name: "match-deep",
		real: &realSpec{design: designs.OMPIThread, window: 256, permuteTags: true, instances: 1},
	},
	{
		name: "pair-fabric-observed",
		real: &realSpec{design: designs.OMPIThreadCRILockFree, window: 128, observed: true, instances: 2},
	},
	{
		name:  "model-sweep",
		model: true,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// numPerms is how many distinct tag permutations a run cycles through; the
// windows use them round-robin so the loop itself allocates nothing.
const numPerms = 16

// numPayloads is how many distinct payloads a run cycles through; message i
// of a window carries payload i mod numPayloads.
const numPayloads = 64

// inputs is everything the benchmark generates from the seed. The program
// under test sees only these values, never the seed.
type inputs struct {
	// tag is the tag of every message on the single-tag workloads.
	tag int32
	// perms[k][j] is the tag posted by receive slot j in window k mod
	// numPerms (match-deep only; sends carry tags 0..W-1 in order).
	perms [][]int32
	// payloads[i] is the payload of message i mod numPayloads.
	payloads [][]byte
}

// makeInputs derives a workload's inputs from seed: the same seed always
// gives identical inputs.
func makeInputs(spec *realSpec, seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{tag: int32(1 + rng.Intn(1<<15))}
	if spec.permuteTags {
		in.perms = make([][]int32, numPerms)
		for k := range in.perms {
			p := rng.Perm(spec.window)
			in.perms[k] = make([]int32, len(p))
			for j, v := range p {
				in.perms[k][j] = int32(v)
			}
		}
	}
	if spec.payload > 0 {
		in.payloads = make([][]byte, numPayloads)
		for i := range in.payloads {
			in.payloads[i] = make([]byte, spec.payload)
			rng.Read(in.payloads[i])
		}
	}
	return in
}

// sendTag is the tag message i of every window is sent with.
func (in *inputs) sendTag(i int) int32 {
	if in.perms != nil {
		return int32(i)
	}
	return in.tag
}

// recvTag is the tag receive slot j of window k is posted with, which is
// also the tag its status must report.
func (in *inputs) recvTag(k, j int) int32 {
	if in.perms != nil {
		return in.perms[k%numPerms][j]
	}
	return in.tag
}

// payload is message i's payload (nil on zero-byte workloads).
func (in *inputs) payload(i int) []byte {
	if in.payloads == nil {
		return nil
	}
	return in.payloads[i%numPayloads]
}
