package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"testing"

	"entitlement/internal/obs/trace"
	schemav1 "entitlement/schema/v1"
)

// The codec-level publish benchmarks measure the pure encode/decode cost of
// one kvstore publish round trip — client request encode, server request
// decode, server response encode, client response decode — with no socket
// in the loop. Loopback TCP adds tens of microseconds of syscall time and
// would mask the codec ratio; the socket-level number lives in
// BenchmarkPublishSocketBinary below and in BENCH_wire.json. The JSON
// benchmark is a reference point only: it marshals the schema/v1 envelope
// shapes with encoding/json, the encoding the binary envelope replaced.

var benchPut = schemav1.KVPut{Key: "rates/cluster-a/web/host-017", Value: 1234.5625, TTLMs: 60000}

func BenchmarkPublishCodecBinary(b *testing.B) {
	var wbuf, idbuf, respbuf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Client: frame the request.
		idbuf = appendRequestID(idbuf[:0], "", "bench", uint64(i))
		wbuf = append(wbuf[:0], 0, 0, 0, 0)
		wbuf = appendBinRequestHeader(wbuf, reqFlagBinaryPayload|reqFlagAcceptBinary, "put", idbuf, "")
		wbuf = benchPut.AppendBinary(wbuf)
		binary.BigEndian.PutUint32(wbuf[:4], uint32(len(wbuf)-4))

		// Server: decode envelope + payload, encode the (empty) reply.
		req, err := decodeBinRequest(wbuf[4:])
		if err != nil {
			b.Fatal(err)
		}
		var p schemav1.KVPut
		if err := p.DecodeBinary(req.payload); err != nil {
			b.Fatal(err)
		}
		if p.Value != benchPut.Value {
			b.Fatal("payload corrupted")
		}
		respbuf = append(respbuf[:0], 0, 0, 0, 0)
		respbuf = appendBinResponseHeader(respbuf, 0, req.id, "", 0)
		binary.BigEndian.PutUint32(respbuf[:4], uint32(len(respbuf)-4))

		// Client: decode the response.
		resp, err := decodeBinResponse(respbuf[4:])
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.errMsg) != 0 {
			b.Fatal("unexpected error")
		}
	}
}

func BenchmarkPublishCodecJSON(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Client: marshal payload + envelope.
		payload, err := json.Marshal(&benchPut)
		if err != nil {
			b.Fatal(err)
		}
		reqBytes, err := json.Marshal(&schemav1.Request{Method: "put", ID: fmt.Sprintf("bench-%d", i), Payload: payload})
		if err != nil {
			b.Fatal(err)
		}

		// Server: decode envelope + payload, encode the reply.
		var req schemav1.Request
		if err := json.Unmarshal(reqBytes, &req); err != nil {
			b.Fatal(err)
		}
		var p schemav1.KVPut
		if err := json.Unmarshal(req.Payload, &p); err != nil {
			b.Fatal(err)
		}
		if p.Value != benchPut.Value {
			b.Fatal("payload corrupted")
		}
		respBytes, err := json.Marshal(&schemav1.Response{ID: req.ID})
		if err != nil {
			b.Fatal(err)
		}

		// Client: decode the response.
		var resp schemav1.Response
		if err := json.Unmarshal(respBytes, &resp); err != nil {
			b.Fatal(err)
		}
		if resp.Error != "" {
			b.Fatal("unexpected error")
		}
	}
}

// TestPublishCodecSpeedupAndAllocs pins the codec bar: the binary publish
// codec must be at least 5x faster than the JSON reference and
// allocation-free.
// It runs the benchmarks through testing.Benchmark so a plain `go test`
// enforces the bar without -bench flags.
func TestPublishCodecSpeedupAndAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation skews both time and allocation counts")
	}
	if testing.Short() {
		t.Skip("benchmark-backed test skipped in -short mode")
	}
	rb := testing.Benchmark(BenchmarkPublishCodecBinary)
	rj := testing.Benchmark(BenchmarkPublishCodecJSON)
	t.Logf("binary: %v/op %d allocs/op; json: %v/op %d allocs/op; speedup %.1fx",
		rb.NsPerOp(), rb.AllocsPerOp(), rj.NsPerOp(), rj.AllocsPerOp(),
		float64(rj.NsPerOp())/float64(rb.NsPerOp()))
	if allocs := rb.AllocsPerOp(); allocs != 0 {
		t.Errorf("binary publish codec allocates %d/op, want 0", allocs)
	}
	if rb.NsPerOp() <= 0 || rj.NsPerOp() < 5*rb.NsPerOp() {
		t.Errorf("binary publish codec speedup %.2fx, want >= 5x (binary %dns, json %dns)",
			float64(rj.NsPerOp())/float64(rb.NsPerOp()), rb.NsPerOp(), rj.NsPerOp())
	}
}

// BenchmarkPublishSocketBinary is the socket-level publish round trip: the
// honest end-to-end number (syscall-dominated). Exported to BENCH_wire.json
// by cmd/benchjson -wire-out.
func BenchmarkPublishSocketBinary(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	arg := &schemav1.KVPut{} // pre-boxed: &local per call would allocate
	srv := NewServer(l, func(tc trace.Context, method string, p Payload) (interface{}, error) {
		*arg = schemav1.KVPut{}
		if err := p.Decode(arg); err != nil {
			return nil, err
		}
		return nil, nil
	}, ServerOptions{})
	defer srv.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Call("put", &benchPut, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Call("put", &benchPut, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPublishSocketZeroAlloc pins the end-to-end guarantee: a binary
// publish through a real client and server performs zero heap allocations
// per call across all goroutines (testing.AllocsPerRun counts the server's
// too).
func TestPublishSocketZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// The decode target lives outside the closure: passing a fresh &local
	// through the interface{} parameter would box it per call. Handlers on
	// the real hot path (kvstore) pool their argument structs for the same
	// reason.
	arg := &schemav1.KVPut{}
	srv := NewServer(l, func(tc trace.Context, method string, p Payload) (interface{}, error) {
		*arg = schemav1.KVPut{}
		if err := p.Decode(arg); err != nil {
			return nil, err
		}
		return nil, nil
	}, ServerOptions{})
	defer srv.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Warm up scratch buffers and the server's method-intern table.
	for i := 0; i < 100; i++ {
		if err := c.Call("put", &benchPut, nil); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := c.Call("put", &benchPut, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("binary publish allocates %.1f/op end to end, want 0", allocs)
	}
}
