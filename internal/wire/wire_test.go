package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"testing/quick"

	"entitlement/internal/obs/trace"
)

// frame prefixes body with its 4-byte big-endian length.
func frame(body []byte) []byte {
	out := make([]byte, 4+len(body))
	binary.BigEndian.PutUint32(out[:4], uint32(len(body)))
	copy(out[4:], body)
	return out
}

// requestFrame builds one framed request envelope around payload.
func requestFrame(flags byte, method, id, trace string, payload []byte) []byte {
	return frame(append(appendBinRequestHeader(nil, flags, method, []byte(id), trace), payload...))
}

func TestMessageRoundTrip(t *testing.T) {
	payload, _ := json.Marshal(map[string]interface{}{"hello": "world", "n": 42.0})
	buf := bytes.NewReader(requestFrame(reqFlagAcceptBinary, "echo", "id-1", "00-tr", payload))
	body, _, err := readFrameInto(bufio.NewReader(buf), nil)
	if err != nil {
		t.Fatal(err)
	}
	req, err := decodeBinRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if string(req.method) != "echo" || string(req.id) != "id-1" || string(req.trace) != "00-tr" || req.flags != reqFlagAcceptBinary {
		t.Errorf("envelope round trip = %+v", req)
	}
	var out map[string]interface{}
	if err := (Payload{data: req.payload}).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["hello"] != "world" || out["n"] != 42.0 {
		t.Errorf("payload round trip = %v", out)
	}
}

func TestMessageMultipleFrames(t *testing.T) {
	var stream []byte
	for i := 0; i < 5; i++ {
		stream = append(stream, requestFrame(0, "m", fmt.Sprint(i), "", []byte(fmt.Sprint(i)))...)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i := 0; i < 5; i++ {
		body, kept, err := readFrameInto(br, buf)
		if err != nil {
			t.Fatal(err)
		}
		buf = kept
		req, err := decodeBinRequest(body)
		if err != nil {
			t.Fatal(err)
		}
		if string(req.id) != fmt.Sprint(i) || string(req.payload) != fmt.Sprint(i) {
			t.Errorf("frame %d = id %q payload %q", i, req.id, req.payload)
		}
	}
	if _, _, err := readFrameInto(br, buf); err != io.EOF {
		t.Errorf("after the last frame: %v, want EOF", err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	raw := requestFrame(0, "echo", "id", "", []byte(`"payload"`))
	if _, _, err := readFrameInto(bufio.NewReader(bytes.NewReader(raw[:len(raw)-3])), nil); err == nil {
		t.Error("truncated frame accepted")
	}
}

func TestReadFrameOversized(t *testing.T) {
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := readFrameInto(bufio.NewReader(bytes.NewReader(hdr)), nil); !errors.Is(err, ErrMessageTooLarge) {
		t.Errorf("err = %v, want ErrMessageTooLarge", err)
	}
}

func startEchoServer(t *testing.T) (*Server, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, func(_ trace.Context, method string, p Payload) (interface{}, error) {
		switch method {
		case "echo":
			var s string
			if err := p.Decode(&s); err != nil {
				return nil, err
			}
			return s, nil
		case "add":
			var args [2]int
			if err := p.Decode(&args); err != nil {
				return nil, err
			}
			return args[0] + args[1], nil
		case "fail":
			return nil, fmt.Errorf("deliberate failure")
		case "null":
			return nil, nil
		default:
			return nil, fmt.Errorf("unknown method %q", method)
		}
	}, ServerOptions{})
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

func TestClientServerRPC(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var s string
	if err := c.Call("echo", "ping", &s); err != nil || s != "ping" {
		t.Errorf("echo = %q, %v", s, err)
	}
	var sum int
	if err := c.Call("add", [2]int{20, 22}, &sum); err != nil || sum != 42 {
		t.Errorf("add = %d, %v", sum, err)
	}
	// nil reply discards the payload.
	if err := c.Call("echo", "discard", nil); err != nil {
		t.Errorf("discarded call: %v", err)
	}
	// nil result from server.
	if err := c.Call("null", nil, nil); err != nil {
		t.Errorf("null call: %v", err)
	}
}

func TestRemoteError(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("fail", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if re.Method != "fail" || re.Message != "deliberate failure" {
		t.Errorf("RemoteError = %+v", re)
	}
	if re.Error() == "" {
		t.Error("empty error string")
	}
	// Connection still usable after a remote error.
	var s string
	if err := c.Call("echo", "still-alive", &s); err != nil || s != "still-alive" {
		t.Errorf("post-error call = %q, %v", s, err)
	}
}

func TestConcurrentClients(t *testing.T) {
	_, addr := startEchoServer(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < 20; j++ {
				var sum int
				if err := c.Call("add", [2]int{i, j}, &sum); err != nil {
					errs <- err
					return
				}
				if sum != i+j {
					errs <- fmt.Errorf("sum = %d, want %d", sum, i+j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestConcurrentCallsOneClient(t *testing.T) {
	_, addr := startEchoServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sum int
			if err := c.Call("add", [2]int{i, 1}, &sum); err != nil || sum != i+1 {
				t.Errorf("call %d: sum=%d err=%v", i, sum, err)
			}
		}(i)
	}
	wg.Wait()
}

func TestServerCloseIdempotent(t *testing.T) {
	srv, addr := startEchoServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	// New connections fail after close.
	if _, err := Dial(addr); err == nil {
		t.Error("dial succeeded after close")
	}
}

func TestServerAddr(t *testing.T) {
	srv, addr := startEchoServer(t)
	if srv.Addr().String() != addr {
		t.Errorf("Addr = %v, want %v", srv.Addr(), addr)
	}
}

// Property: the frame reader and both envelope decoders never panic on
// arbitrary input bytes — they either decode or return an error.
func TestReadFrameRobustnessProperty(t *testing.T) {
	f := func(raw []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("frame decode panicked")
			}
		}()
		if body, _, err := readFrameInto(bufio.NewReader(bytes.NewReader(raw)), nil); err == nil {
			decodeBinRequest(body)
			decodeBinResponse(body)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: framing then decoding round-trips arbitrary request fields.
func TestMessageRoundTripProperty(t *testing.T) {
	f := func(method, id, tr string, payload []byte, flags byte) bool {
		body, _, err := readFrameInto(bufio.NewReader(bytes.NewReader(requestFrame(flags, method, id, tr, payload))), nil)
		if err != nil {
			return false
		}
		req, err := decodeBinRequest(body)
		return err == nil && string(req.method) == method && string(req.id) == id &&
			string(req.trace) == tr && bytes.Equal(req.payload, payload) && req.flags == flags
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
