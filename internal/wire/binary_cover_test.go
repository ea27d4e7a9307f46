package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"entitlement/internal/obs/trace"
	schemav1 "entitlement/schema/v1"
)

// Every proper prefix of a valid envelope must decode to an error — the
// torn-frame guarantee at the envelope layer.
func TestDecodeTruncatedEnvelopes(t *testing.T) {
	req := appendBinRequestHeader(nil, 0, "m", []byte("id"), "tr")
	for i := 0; i < len(req); i++ {
		if _, err := decodeBinRequest(req[:i]); err == nil {
			t.Errorf("request prefix %d/%d decoded", i, len(req))
		}
	}
	resp := appendBinResponseHeader(nil, 0, []byte("id"), "err", 5)
	for i := 0; i < len(resp); i++ {
		if _, err := decodeBinResponse(resp[:i]); err == nil {
			t.Errorf("response prefix %d/%d decoded", i, len(resp))
		}
	}
}

func TestReadFrameIntoGrowAndShortBody(t *testing.T) {
	// A body larger than the initial scratch grows the buffer once and is
	// read whole.
	big := bytes.Repeat([]byte{0xAB}, 600)
	frame := make([]byte, 4+len(big))
	binary.BigEndian.PutUint32(frame[:4], uint32(len(big)))
	copy(frame[4:], big)
	body, kept, err := readFrameInto(bufio.NewReader(bytes.NewReader(frame)), nil)
	if err != nil || !bytes.Equal(body, big) {
		t.Fatalf("big frame: %v (len %d)", err, len(body))
	}
	// The kept buffer is reused for a second, smaller frame.
	frame2 := []byte{0, 0, 0, 2, 1, 2}
	body, _, err = readFrameInto(bufio.NewReader(bytes.NewReader(frame2)), kept)
	if err != nil || !bytes.Equal(body, []byte{1, 2}) {
		t.Fatalf("reused frame: %v %x", err, body)
	}
	// A header promising more bytes than the stream holds is a read error.
	if _, _, err := readFrameInto(bufio.NewReader(bytes.NewReader([]byte{0, 0, 0, 9, 1, 2})), nil); err == nil {
		t.Error("short body accepted")
	}
}

// The serve loop keeps serving with ReadIdleTimeout set (the deadline is
// re-armed per request) and stamps the Service name onto its wire.serve
// spans, for replies in either payload codec.
func TestServeLoopsWithLoggerServiceAndIdleTimeout(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reply func() (interface{}, func() float64)
	}{
		{"binary", func() (interface{}, func() float64) {
			r := new(schemav1.KVSumReply)
			return r, func() float64 { return r.Sum }
		}},
		{"json", func() (interface{}, func() float64) {
			r := new(struct {
				Sum float64 `json:"sum"`
			})
			return r, func() float64 { return r.Sum }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := NewServer(l, func(_ trace.Context, method string, _ Payload) (interface{}, error) {
				switch method {
				case "ok":
					return &schemav1.KVSumReply{Sum: 2.5}, nil
				case "badresult":
					return func() {}, nil // json.Marshal will fail
				default:
					return nil, fmt.Errorf("boom")
				}
			}, ServerOptions{
				ReadIdleTimeout: 2 * time.Second,
				Service:         "covertest",
			})
			defer srv.Close()
			c, err := Dial(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			root := trace.Default().StartRoot("cover-op")
			c.SetSpan(root.Context())
			reply, got := tc.reply()
			if err := c.Call("ok", nil, reply); err != nil || got() != 2.5 {
				t.Fatalf("ok = %v, %v", got(), err)
			}
			var re *RemoteError
			if err := c.Call("fail", nil, nil); !errors.As(err, &re) {
				t.Fatalf("fail = %v", err)
			}
			// A result the codec cannot marshal becomes a remote error, not a
			// dropped connection.
			if err := c.Call("badresult", nil, nil); !errors.As(err, &re) {
				t.Fatalf("badresult = %v", err)
			}
			if err := c.Call("ok", nil, reply); err != nil {
				t.Fatalf("connection lost after marshal failure: %v", err)
			}
			root.Finish() // the failed calls force retention
			tree, ok := trace.Default().Tree(root.TraceID())
			if !ok {
				t.Fatalf("trace %s not retained", root.TraceID())
			}
			serves := 0
			for _, sp := range tree.Spans {
				if strings.HasPrefix(sp.Name, "wire.serve.") {
					serves++
					if sp.Service != "covertest" {
						t.Errorf("%s service = %q, want covertest", sp.Name, sp.Service)
					}
				}
			}
			if serves != 4 {
				t.Errorf("%d wire.serve spans, want one per call (4)", serves)
			}
		})
	}
}

// A binary frame that starts with '{' but is not parseable JSON still gets
// the JSON-frame rejection, without an echoed ID.
func TestBinaryServerRejectsUnparseableJSONFrame(t *testing.T) {
	_, addr := startPayloadServer(t, ServerOptions{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	garbage := []byte(`{"method": truncated`)
	if _, err := conn.Write(frame(garbage)); err != nil {
		t.Fatal(err)
	}
	resp := readBinaryResponse(t, br)
	if !strings.Contains(string(resp.errMsg), "JSON frame") || len(resp.id) != 0 {
		t.Errorf("unparseable JSON frame: id=%q err=%q", resp.id, resp.errMsg)
	}
}

// scriptedBinaryServer accepts one connection and hands each request to
// respond, which returns the raw response frame body to send.
func scriptedBinaryServer(t *testing.T, respond func(req binRequest) []byte) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		br := bufio.NewReader(conn)
		for {
			body, _, err := readFrameInto(br, nil)
			if err != nil {
				return
			}
			req, err := decodeBinRequest(body)
			if err != nil {
				return
			}
			if _, err := conn.Write(frame(respond(req))); err != nil {
				return
			}
		}
	}()
	return l.Addr().String()
}

// A misbehaving binary server — garbage frames, wrong IDs, unsolicited
// binary payloads — produces transient errors and a connection reset, never
// a desync or a panic.
func TestCallBinaryServerMisbehaves(t *testing.T) {
	cases := []struct {
		name    string
		respond func(req binRequest) []byte
		reply   interface{}
		wantErr string
	}{
		{
			name:    "garbage-response",
			respond: func(req binRequest) []byte { return []byte{0x07, 0x00} },
			wantErr: "malformed binary frame",
		},
		{
			name: "wrong-id-length",
			respond: func(req binRequest) []byte {
				return appendBinResponseHeader(nil, 0, []byte("totally-different-id"), "", 0)
			},
			wantErr: "does not match",
		},
		{
			name: "wrong-id-content",
			respond: func(req binRequest) []byte {
				id := bytes.Repeat([]byte{'z'}, len(req.id))
				return appendBinResponseHeader(nil, 0, id, "", 0)
			},
			wantErr: "does not match",
		},
		{
			name: "unsolicited-binary-payload",
			respond: func(req binRequest) []byte {
				out := appendBinResponseHeader(nil, respFlagBinaryPayload, req.id, "", 0)
				return append(out, 0x01)
			},
			reply:   new(string), // not a WireUnmarshaler
			wantErr: "unsolicited binary payload",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := scriptedBinaryServer(t, tc.respond)
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			err = c.Call("m", nil, tc.reply)
			if !IsTransient(err) || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("err = %v, want transient containing %q", err, tc.wantErr)
			}
		})
	}
}

// Argument marshal failures and oversized requests error before touching
// the connection, for arguments in either payload codec.
func TestCallArgumentErrors(t *testing.T) {
	for _, tc := range []struct {
		name      string
		badArgs   interface{} // fails to encode, or nil when it cannot
		hugeArgs  interface{}
		aliveArgs interface{}
	}{
		{"binary", nil, &schemav1.KVKey{Key: strings.Repeat("x", MaxMessageSize)}, &schemav1.KVKey{Key: "alive"}},
		{"json", func() {}, jsonKVKey{Key: strings.Repeat("x", MaxMessageSize)}, jsonKVKey{Key: "alive"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, addr := startPayloadServer(t, ServerOptions{})
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if tc.badArgs != nil {
				if err := c.Call("echo", tc.badArgs, nil); err == nil || !strings.Contains(err.Error(), "marshal args") {
					t.Errorf("unmarshalable args: %v", err)
				}
			}
			if err := c.Call("get", tc.hugeArgs, nil); !errors.Is(err, ErrMessageTooLarge) {
				t.Errorf("oversized args: %v", err)
			}
			// The connection survives both local failures.
			var r jsonKVGetReply
			if err := c.Call("get", tc.aliveArgs, &r); err != nil {
				t.Errorf("post-failure call: %v", err)
			}
		})
	}
}

// A handler result too large for the frame limit is answered with a
// permanent size error on the same connection: the request was served and
// framing never desynced, so there is nothing for the client to retry and
// no reason to drop the connection.
func TestBinaryResponseTooLargeKeepsConnection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, func(tc trace.Context, method string, p Payload) (interface{}, error) {
		if method == "huge" {
			return strings.Repeat("x", MaxMessageSize), nil
		}
		return "ok", nil
	}, ServerOptions{})
	defer srv.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = c.Call("huge", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) || IsTransient(err) || !strings.Contains(re.Message, ErrMessageTooLarge.Error()) {
		t.Fatalf("huge result: %v, want a permanent RemoteError carrying %q", err, ErrMessageTooLarge)
	}
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	var s string
	if err := c.Call("small", nil, &s); err != nil || s != "ok" {
		t.Fatalf("next call: %q, %v", s, err)
	}
	c.mu.Lock()
	same := c.conn == conn
	c.mu.Unlock()
	if !same {
		t.Error("the next call re-dialed: the oversized result dropped the connection")
	}
}
