package tcpnet

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/hw"
	"repro/internal/raceflag"
	"repro/internal/spc"
	"repro/internal/transport"
)

// TestReadFramesRejectsMalformed feeds the frame reader hostile byte
// streams over an in-memory connection. Each malformed stream must end the
// reader, count exactly one wire_frame_rejects tick, close the reader's end
// of the connection, and cost well under 1 MiB of allocation whatever
// length the prefix claims. A well-formed frame followed by a clean close
// counts nothing and is delivered.
func TestReadFramesRejectsMalformed(t *testing.T) {
	good := transport.NewPacket(transport.Envelope{Src: 0, Dst: 0, Tag: 3, Kind: transport.KindEager}, []byte("payload"), nil)
	frame := good.AppendMuxFrame(nil, 0)
	hugeLen := binary.LittleEndian.AppendUint32(nil, 0xFFFFFFFF)
	garbage := append(binary.LittleEndian.AppendUint32(nil, 8), make([]byte, 8)...)

	cases := []struct {
		name      string
		stream    []byte
		closePeer bool // the peer closes after writing (else it stays open)
		rejects   int64
		delivered int
	}{
		{"well-formed then clean close", frame, true, 0, 1},
		{"huge length prefix", hugeLen, true, 1, 0},
		{"mux id beyond any context", good.AppendMuxFrame(nil, 1<<31), false, 1, 0},
		{"truncated frame", frame[:len(frame)/2], true, 1, 0},
		{"truncated length prefix", frame[:2], true, 1, 0},
		{"undecodable body", garbage, false, 1, 0},
		{"good frame then huge prefix", append(append([]byte(nil), frame...), hugeLen...), true, 1, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nets, err := NewLoopback(1)
			if err != nil {
				t.Fatal(err)
			}
			ctr := spc.NewSet()
			dev, err := nets[0].NewDevice(0, hw.Fast(), transport.DeviceConfig{Counters: ctr})
			if err != nil {
				t.Fatal(err)
			}
			defer dev.Close()
			ctx, err := dev.CreateContext(0)
			if err != nil {
				t.Fatal(err)
			}

			local, peer := net.Pipe()
			defer peer.Close()
			wrote := make(chan error, 1)
			go func() {
				_, err := peer.Write(tc.stream)
				if tc.closePeer {
					peer.Close()
				}
				wrote <- err
			}()

			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			nets[0].readFrames(local)
			runtime.ReadMemStats(&m1)
			if err := <-wrote; err != nil {
				t.Fatalf("peer write: %v", err)
			}

			if got := ctr.Get(spc.WireFrameRejects); got != tc.rejects {
				t.Errorf("wire_frame_rejects = %d, want %d", got, tc.rejects)
			}
			if a := m1.TotalAlloc - m0.TotalAlloc; a >= 1<<20 {
				t.Errorf("reader allocated %d bytes, want < 1 MiB", a)
			}
			// A reject closes the reader's own end (reads then fail with
			// ErrClosedPipe); a clean end leaves it seeing the peer's EOF.
			// The deadline turns a reader that left its end open into a
			// failure rather than a hang.
			_ = local.SetReadDeadline(time.Now().Add(time.Second))
			_, rerr := local.Read(make([]byte, 1))
			if tc.rejects > 0 && !errors.Is(rerr, io.ErrClosedPipe) {
				t.Errorf("after a reject, local read = %v, want the reader to have closed its end", rerr)
			}
			if tc.rejects == 0 && !errors.Is(rerr, io.EOF) {
				t.Errorf("after a clean close, local read = %v, want EOF", rerr)
			}
			if got := ctx.Poll(func(transport.CQE) {}, 8); got != tc.delivered {
				t.Errorf("delivered %d packets, want %d", got, tc.delivered)
			}
		})
	}
}

// TestReadFrameBufferAllocatedOnce checks that consecutive small frames
// share one buffer: the reader allocates its frame storage once, not per
// frame.
func TestReadFrameBufferAllocatedOnce(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	body := make([]byte, 100)
	src := make([]byte, 0, 10*len(body))
	for i := 0; i < 10; i++ {
		src = append(src, body...)
	}
	r := &chunkReader{b: src}
	buf, err := readFrame(r, nil, len(body))
	if err != nil {
		t.Fatal(err)
	}
	first := &buf[:1][0]
	allocs := testing.AllocsPerRun(5, func() {
		if buf, err = readFrame(r, buf, len(body)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 || &buf[:1][0] != first {
		t.Fatalf("readFrame reallocated its buffer (%v allocs per frame)", allocs)
	}
}

// chunkReader yields its bytes a few at a time, as a socket may.
type chunkReader struct{ b []byte }

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 7)], r.b)
	r.b = r.b[n:]
	return n, nil
}
