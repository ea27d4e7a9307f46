package integration

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/contractdb"
	"entitlement/internal/granting"
	"entitlement/internal/kvstore"
	"entitlement/internal/topology"
	"entitlement/internal/wire"
)

// recordingProxy forwards one client connection to a server and records
// every byte the client sends.
type recordingProxy struct {
	l    net.Listener
	mu   sync.Mutex
	sent []byte
}

func startRecordingProxy(t *testing.T, target string) *recordingProxy {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &recordingProxy{l: l}
	t.Cleanup(func() { l.Close() })
	go func() {
		in, err := l.Accept()
		if err != nil {
			return
		}
		defer in.Close()
		out, err := net.Dial("tcp", target)
		if err != nil {
			return
		}
		defer out.Close()
		go io.Copy(in, out)
		buf := make([]byte, 4096)
		for {
			n, err := in.Read(buf)
			if n > 0 {
				p.mu.Lock()
				p.sent = append(p.sent, buf[:n]...)
				p.mu.Unlock()
				if _, werr := out.Write(buf[:n]); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}()
	return p
}

func (p *recordingProxy) Sent() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]byte(nil), p.sent...)
}

// firstFrameMethod decodes the method of the first request envelope in a
// client's byte stream: 4-byte length, kind 0x01, flags, then the method as
// a uvarint-length-prefixed string.
func firstFrameMethod(t *testing.T, sent []byte) string {
	t.Helper()
	if len(sent) < 6 {
		t.Fatalf("client sent %d bytes, want a whole frame", len(sent))
	}
	body := sent[4:]
	if n := binary.BigEndian.Uint32(sent[:4]); int(n) > len(body) {
		t.Fatalf("first frame promises %d bytes, client sent %d", n, len(body))
	}
	if body[0] != 0x01 {
		t.Fatalf("first frame kind = %#x (%q), want a binary request envelope", body[0], body[:min(len(body), 16)])
	}
	n, w := binary.Uvarint(body[2:])
	if w <= 0 || int(n) > len(body)-2-w {
		t.Fatalf("first frame has no method field: %x", body)
	}
	return string(body[2+w : 2+w+int(n)])
}

// A zero-value ClientOptions client dials every in-repo server without a
// handshake: after DialOpts the server has received nothing, the first Call
// is the first frame on the connection, and it round-trips.
func TestZeroValueClientFirstCallIsFirstFrame(t *testing.T) {
	listen := func(t *testing.T) net.Listener {
		t.Helper()
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	cases := []struct {
		name  string
		serve func(t *testing.T) string
		// call dials addr with a zero-value ClientOptions, runs dialed
		// once DialOpts has returned, then issues one Call.
		call   func(t *testing.T, addr string, dialed func()) error
		method string
	}{
		{
			name: "kvstore",
			serve: func(t *testing.T) string {
				srv := kvstore.NewServer(listen(t), kvstore.New())
				t.Cleanup(func() { srv.Close() })
				return srv.Addr()
			},
			call: func(t *testing.T, addr string, dialed func()) error {
				c, err := kvstore.DialOpts(addr, wire.ClientOptions{})
				if err != nil {
					return err
				}
				t.Cleanup(func() { c.Close() })
				dialed()
				return c.Put(kvstore.RateKey("Web", "c2_low", "A", "h1"), 5, time.Minute)
			},
			method: "put",
		},
		{
			name: "contractdb",
			serve: func(t *testing.T) string {
				srv := contractdb.NewServer(listen(t), contractdb.NewStore())
				t.Cleanup(func() { srv.Close() })
				return srv.Addr()
			},
			call: func(t *testing.T, addr string, dialed func()) error {
				c, err := contractdb.DialOpts(addr, wire.ClientOptions{})
				if err != nil {
					return err
				}
				t.Cleanup(func() { c.Close() })
				dialed()
				_, _, err = c.EntitledRate("Web", contract.C2Low, "A", contract.Egress, time.Now())
				return err
			},
			method: "entitled_rate",
		},
		{
			name: "grantd",
			serve: func(t *testing.T) string {
				svc := granting.NewService(topology.FigureSix(), contractdb.NewStore(), granting.Options{})
				t.Cleanup(func() { svc.Close() })
				srv := granting.NewServer(listen(t), svc)
				t.Cleanup(func() { srv.Close() })
				return srv.Addr()
			},
			call: func(t *testing.T, addr string, dialed func()) error {
				c, err := granting.DialOpts(addr, wire.ClientOptions{})
				if err != nil {
					return err
				}
				t.Cleanup(func() { c.Close() })
				dialed()
				_, err = c.Report(1)
				return err
			},
			method: "report",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			proxy := startRecordingProxy(t, tc.serve(t))
			dialed := func() {
				// A handshake completes before DialOpts returns; the pause
				// also catches one sent without waiting for a reply.
				time.Sleep(20 * time.Millisecond)
				if sent := proxy.Sent(); len(sent) != 0 {
					t.Fatalf("DialOpts sent %d bytes before the first Call (%q)", len(sent), sent)
				}
			}
			if err := tc.call(t, proxy.l.Addr().String(), dialed); err != nil {
				t.Fatalf("first call through a zero-value client: %v", err)
			}
			if got := firstFrameMethod(t, proxy.Sent()); got != tc.method {
				t.Errorf("first frame carries method %q, want the first Call's %q", got, tc.method)
			}
		})
	}
}
