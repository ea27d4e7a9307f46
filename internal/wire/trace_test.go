package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"regexp"
	"strings"
	"sync"
	"testing"

	"entitlement/internal/obs/trace"
)

// syncBuffer is a goroutine-safe log sink (the server logs from its
// connection goroutine).
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func debugLogger(w *syncBuffer) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug}))
}

// nopHandler answers every request with an empty success.
func nopHandler(trace.Context, string, Payload) (interface{}, error) { return nil, nil }

var requestIDRE = regexp.MustCompile(`request_id=(\S+)`)

// TestRequestIDPropagatedToLogs is the trace-propagation contract: for one
// call, the SAME client-generated request ID appears in the client's span
// and in the server's span.
func TestRequestIDPropagatedToLogs(t *testing.T) {
	var clientLog, serverLog syncBuffer
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, func(_ trace.Context, method string, _ Payload) (interface{}, error) {
		return map[string]string{"pong": method}, nil
	}, ServerOptions{Logger: debugLogger(&serverLog)})
	defer srv.Close()

	c, err := DialOpts(l.Addr().String(), ClientOptions{Logger: debugLogger(&clientLog)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var reply map[string]string
	if err := c.Call("ping", nil, &reply); err != nil {
		t.Fatal(err)
	}
	srv.Close() // flush: the server span is written before the response, but close anyway

	m := requestIDRE.FindStringSubmatch(clientLog.String())
	if m == nil {
		t.Fatalf("no request_id in client log:\n%s", clientLog.String())
	}
	id := m[1]
	if id == "" {
		t.Fatal("empty request ID in client span")
	}
	if !strings.Contains(serverLog.String(), "request_id="+id) {
		t.Fatalf("request ID %s from the client span is missing from the server log:\n%s", id, serverLog.String())
	}
}

// TestSetTracePrefixesRequestIDs: after SetTrace, every request ID carries
// the trace prefix, so a cycle's whole fan-out greps under one token.
func TestSetTracePrefixesRequestIDs(t *testing.T) {
	var clientLog syncBuffer
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, nopHandler, ServerOptions{})
	defer srv.Close()
	c, err := DialOpts(l.Addr().String(), ClientOptions{Logger: debugLogger(&clientLog)})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.SetTrace("host-7-c42")
	if err := c.Call("a", nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("b", nil, nil); err != nil {
		t.Fatal(err)
	}
	c.SetTrace("")
	if err := c.Call("c", nil, nil); err != nil {
		t.Fatal(err)
	}
	ids := requestIDRE.FindAllStringSubmatch(clientLog.String(), -1)
	if len(ids) != 3 {
		t.Fatalf("want 3 spans, got %d:\n%s", len(ids), clientLog.String())
	}
	for _, m := range ids[:2] {
		if !strings.HasPrefix(m[1], "host-7-c42.") {
			t.Fatalf("traced request ID %q lacks the trace prefix", m[1])
		}
	}
	if strings.HasPrefix(ids[2][1], "host-7-c42.") {
		t.Fatalf("request ID %q still carries a cleared trace", ids[2][1])
	}
}

// TestCallPropagatesSpanTree is the cross-process tracing contract at the
// wire layer: with a span attached via SetSpan, one Call yields a wire.call
// span on the client parented under the caller's span, a wire.serve span on
// the server parented under the wire.call span, and the handler receives
// the serve span's context — one tree across both sides.
func TestCallPropagatesSpanTree(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var handlerCtx trace.Context
	srv := NewServer(l, func(tc trace.Context, method string, _ Payload) (interface{}, error) {
		handlerCtx = tc
		return nil, nil
	}, ServerOptions{Service: "srv"})
	defer srv.Close()
	c, err := DialOpts(l.Addr().String(), ClientOptions{Service: "cli"})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	col := trace.Default()
	root := col.StartRoot("op")
	c.SetSpan(root.Context())
	if err := c.Call("ping", nil, nil); err != nil {
		t.Fatal(err)
	}
	if !handlerCtx.Valid() {
		t.Fatal("handler received a zero trace context for a traced call")
	}
	if handlerCtx.TraceID() != root.TraceID() {
		t.Fatalf("handler context is on trace %s, caller is on %s", handlerCtx.TraceID(), root.TraceID())
	}
	root.SetError(errors.New("retain me")) // force tail sampling to keep the trace
	root.Finish()

	tree, ok := col.Tree(root.TraceID())
	if !ok {
		t.Fatalf("trace %s not retained", root.TraceID())
	}
	byName := map[string]trace.SpanRecord{}
	for _, s := range tree.Spans {
		byName[s.Name] = s
	}
	call, ok := byName["wire.call.ping"]
	if !ok {
		t.Fatalf("no wire.call.ping span in tree: %+v", tree.Spans)
	}
	serve, ok := byName["wire.serve.ping"]
	if !ok {
		t.Fatalf("no wire.serve.ping span in tree: %+v", tree.Spans)
	}
	rootRec := byName["op"]
	if call.Parent != rootRec.SpanID {
		t.Errorf("wire.call.ping parent = %s, want root span %s", call.Parent, rootRec.SpanID)
	}
	if serve.Parent != call.SpanID {
		t.Errorf("wire.serve.ping parent = %s, want wire.call span %s", serve.Parent, call.SpanID)
	}
	if call.Service != "cli" || serve.Service != "srv" {
		t.Errorf("span services = %q/%q, want cli/srv", call.Service, serve.Service)
	}
	if serve.SpanID != handlerCtx.SpanID() {
		t.Errorf("handler context span %s is not the wire.serve span %s", handlerCtx.SpanID(), serve.SpanID)
	}
}

// TestSetTraceRaceWithConcurrentCalls pins the lock-free trace state:
// SetTrace/SetSpan swaps racing concurrent Calls must neither trip the race
// detector nor produce a torn request ID (a traced ID always carries the
// prefix of one complete snapshot).
func TestSetTraceRaceWithConcurrentCalls(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, nopHandler, ServerOptions{})
	defer srv.Close()
	c, err := DialOpts(l.Addr().String(), ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	sp := trace.Default().StartRoot("race-root")
	defer sp.Finish()
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 3 {
			case 0:
				c.SetTrace(fmt.Sprintf("t%d", i))
			case 1:
				c.SetSpan(sp.Context())
			default:
				c.SetTrace("")
			}
		}
	}()
	var callers sync.WaitGroup
	for g := 0; g < 4; g++ {
		callers.Add(1)
		go func() {
			defer callers.Done()
			for i := 0; i < 50; i++ {
				if err := c.Call("m", nil, nil); err != nil {
					t.Errorf("Call under SetTrace race: %v", err)
					return
				}
			}
		}()
	}
	callers.Wait()
	close(stop)
	swapper.Wait()
	// Correctness here is "no race detector report and no failed call"; the
	// atomic snapshot makes a torn prefix/context pair unrepresentable.
}

// TestRequestIDOnErrors: both RemoteError and TransientError surface the
// request ID of the failed call.
func TestRequestIDOnErrors(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, func(trace.Context, string, Payload) (interface{}, error) {
		return nil, fmt.Errorf("handler says no")
	}, ServerOptions{})
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = c.Call("denied", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("want RemoteError, got %v", err)
	}
	if re.RequestID == "" {
		t.Fatal("RemoteError without a request ID")
	}
	if !strings.Contains(re.Error(), re.RequestID) {
		t.Fatalf("RemoteError message %q does not include its request ID", re.Error())
	}

	srv.Close() // next call fails in transport
	err = c.Call("gone", nil, nil)
	var te *TransientError
	if !errors.As(err, &te) {
		t.Fatalf("want TransientError, got %v", err)
	}
	if te.RequestID == "" {
		t.Fatal("TransientError without a request ID")
	}
	if !strings.Contains(te.Error(), te.RequestID) {
		t.Fatalf("TransientError message %q does not include its request ID", te.Error())
	}
}

// TestResponseIDMismatchBreaksConnection: a response carrying a different
// request's ID means the stream is desynced; the client must fail the call
// transiently and drop the connection.
func TestResponseIDMismatchBreaksConnection(t *testing.T) {
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, _, err := readFrameInto(bufio.NewReader(server), nil); err != nil {
			return
		}
		server.Write(frame(appendBinResponseHeader(nil, 0, []byte("not-your-request"), "", 0)))
	}()
	c := NewClient(client)
	defer c.Close()
	err := c.Call("m", nil, nil)
	<-done
	if !IsTransient(err) {
		t.Fatalf("want transient desync error, got %v", err)
	}
	if !strings.Contains(err.Error(), "not-your-request") {
		t.Fatalf("error %q does not explain the ID mismatch", err)
	}
	// The connection must be marked broken: a pipe-backed client cannot
	// re-dial, so the next call fails fast.
	if err := c.Call("m2", nil, nil); !errors.Is(err, ErrBrokenConn) {
		t.Fatalf("connection not marked broken after desync: %v", err)
	}
}
