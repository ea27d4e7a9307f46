package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"entitlement/internal/obs/trace"
)

// fastOptions keep failure tests quick.
func fastOptions() ClientOptions {
	return ClientOptions{
		DialTimeout: 500 * time.Millisecond,
		CallTimeout: 200 * time.Millisecond,
		MinBackoff:  time.Millisecond,
		MaxBackoff:  20 * time.Millisecond,
	}
}

func TestIsTransientClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{&TransientError{Err: errors.New("x")}, true},
		{fmt.Errorf("wrapped: %w", &TransientError{Err: errors.New("x")}), true},
		{&RemoteError{Method: "m", Message: "boom"}, false},
		{ErrMessageTooLarge, false},
		{ErrClientClosed, false},
		{ErrBrokenConn, true},
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{net.ErrClosed, true},
		{errors.New("application logic"), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestCallDeadlineOnStalledServer(t *testing.T) {
	// A listener that accepts but never answers: the call must return a
	// transient error within ~CallTimeout instead of blocking forever.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	c, err := DialOpts(l.Addr().String(), fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	err = c.Call("echo", "x", nil)
	if err == nil {
		t.Fatal("call against stalled server succeeded")
	}
	if !IsTransient(err) {
		t.Errorf("stall error not transient: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("call blocked %v past its 200ms deadline", d)
	}
}

func TestClientReconnectsAfterServerRestart(t *testing.T) {
	srv, addr := startEchoServer(t)
	c, err := DialOpts(addr, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var s string
	if err := c.Call("echo", "one", &s); err != nil {
		t.Fatal(err)
	}

	// Kill the server mid-life; in-flight state must break, not desync.
	srv.Close()
	if err := c.Call("echo", "two", &s); err == nil {
		t.Fatal("call against closed server succeeded")
	} else if !IsTransient(err) {
		t.Fatalf("server-down error not transient: %v", err)
	}

	// Restart on the same address and let the backoff gate pass.
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	srv2 := NewServer(l, echoHandler, ServerOptions{})
	defer srv2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := c.Call("echo", "three", &s); err == nil {
			if s != "three" {
				t.Fatalf("reconnected echo = %q", s)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected after server restart")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// echoHandler answers every method with its string payload.
func echoHandler(_ trace.Context, _ string, p Payload) (interface{}, error) {
	var s string
	p.Decode(&s)
	return s, nil
}

// rawDial opens a plain TCP connection to the server for protocol abuse.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestServerRejectsOversizedFrameWithError(t *testing.T) {
	_, addr := startEchoServer(t)
	conn := rawDial(t, addr)
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxMessageSize+1)
	if _, err := conn.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	if resp := readBinaryResponse(t, bufio.NewReader(conn)); len(resp.errMsg) == 0 {
		t.Fatal("oversized frame got a success response")
	}
	// The connection must then close: the stream cannot resync.
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("connection stayed open after oversized frame: %v", err)
	}
}

func TestServerAnswersGarbageFrameAndKeepsServing(t *testing.T) {
	_, addr := startEchoServer(t)
	conn := rawDial(t, addr)
	br := bufio.NewReader(conn)
	// Frame a body that is no envelope at all.
	if _, err := conn.Write(frame([]byte("\x7fnot an envelope"))); err != nil {
		t.Fatal(err)
	}
	if resp := readBinaryResponse(t, br); len(resp.errMsg) == 0 {
		t.Fatal("garbage request got a success response")
	}
	// Framing was intact, so the same connection keeps working.
	if _, err := conn.Write(requestFrame(0, "echo", "", "", []byte(`"ok"`))); err != nil {
		t.Fatal(err)
	}
	if resp := readBinaryResponse(t, br); len(resp.errMsg) != 0 || string(resp.payload) != `"ok"` {
		t.Fatalf("follow-up request: err %q payload %q", resp.errMsg, resp.payload)
	}
}

func TestServerReadIdleTimeout(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, func(trace.Context, string, Payload) (interface{}, error) {
		return nil, nil
	}, ServerOptions{ReadIdleTimeout: 100 * time.Millisecond})
	defer srv.Close()

	// An idle connection is dropped.
	idle := rawDial(t, srv.Addr().String())
	idle.SetReadDeadline(time.Now().Add(2 * time.Second))
	start := time.Now()
	if _, err := idle.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle connection not closed")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("idle connection closed after %v, want ~100ms", d)
	}

	// A byte-dribbling client is dropped too: the deadline is absolute,
	// not reset per byte.
	dribble := rawDial(t, srv.Addr().String())
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 8)
	dribble.Write(hdr[:])
	closed := false
	for i := 0; i < 8; i++ {
		time.Sleep(30 * time.Millisecond)
		if _, err := dribble.Write([]byte{'"'}); err != nil {
			closed = true
			break
		}
	}
	if !closed {
		// The write side may not see the reset immediately; confirm via
		// read.
		dribble.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := dribble.Read(make([]byte, 1)); err == nil {
			t.Error("dribbling connection survived the idle timeout")
		}
	}
}

func TestCloseRacingInFlightCall(t *testing.T) {
	// A handler slow enough that Close always lands mid-call.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, func(trace.Context, string, Payload) (interface{}, error) {
		time.Sleep(300 * time.Millisecond)
		return "late", nil
	}, ServerOptions{})
	defer srv.Close()

	for i := 0; i < 4; i++ {
		c, err := DialOpts(srv.Addr().String(), ClientOptions{CallTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s string
			// Either outcome is fine; it must not deadlock or panic.
			c.Call("slow", nil, &s)
		}()
		time.Sleep(20 * time.Millisecond)
		if err := c.Close(); err != nil && !errors.Is(err, net.ErrClosed) {
			t.Errorf("close: %v", err)
		}
		wg.Wait()
		if err := c.Call("slow", nil, nil); !errors.Is(err, ErrClientClosed) {
			t.Errorf("call after close = %v, want ErrClientClosed", err)
		}
	}
}

func TestConcurrentClientsWithFailures(t *testing.T) {
	// Many clients hammer one server while it restarts underneath them;
	// nothing may deadlock and post-restart calls must succeed.
	srv, addr := startEchoServer(t)
	const n = 6
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := DialOpts(addr, fastOptions())
			if err != nil {
				c = Connect(addr, fastOptions())
			}
			defer c.Close()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var sum int
				c.Call("add", [2]int{i, 1}, &sum) // errors expected mid-restart
			}
		}(i)
	}
	time.Sleep(50 * time.Millisecond)
	srv.Close()
	time.Sleep(50 * time.Millisecond)
	l, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	srv2 := NewServer(l, func(_ trace.Context, _ string, p Payload) (interface{}, error) {
		var args [2]int
		if err := p.Decode(&args); err != nil {
			return nil, err
		}
		return args[0] + args[1], nil
	}, ServerOptions{})
	defer srv2.Close()
	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()

	// Fresh client sanity check after the churn.
	c, err := DialOpts(addr, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var sum int
	if err := c.Call("add", [2]int{20, 22}, &sum); err != nil || sum != 42 {
		t.Fatalf("post-restart add = %d, %v", sum, err)
	}
}

func TestConnectLazyDialsWhenServerAppears(t *testing.T) {
	// Reserve an address, then Connect before anything listens.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	c := Connect(addr, fastOptions())
	defer c.Close()
	if err := c.Call("echo", "x", nil); err == nil {
		t.Fatal("call succeeded with no server")
	} else if !IsTransient(err) {
		t.Fatalf("no-server error not transient: %v", err)
	}

	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	srv := NewServer(l2, echoHandler, ServerOptions{})
	defer srv.Close()
	var s string
	deadline := time.Now().Add(2 * time.Second)
	for {
		if err := c.Call("echo", "up", &s); err == nil && s == "up" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("lazy client never connected once the server appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
