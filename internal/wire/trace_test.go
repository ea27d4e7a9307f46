package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"entitlement/internal/obs/trace"
)

// nopHandler answers every request with an empty success.
func nopHandler(trace.Context, string, Payload) (interface{}, error) { return nil, nil }

// TestRequestIDCorrelatesSpanTree is the request-ID contract under tracing:
// for one failing traced call, the ID stamped on the caller's error is the
// note on both the client's wire.call span and the server's wire.serve span,
// so an error in a log leads straight to its two spans.
func TestRequestIDCorrelatesSpanTree(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(l, func(trace.Context, string, Payload) (interface{}, error) {
		return nil, errors.New("handler says no")
	}, ServerOptions{})
	defer srv.Close()
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	col := trace.Default()
	root := col.StartRoot("op")
	c.SetSpan(root.Context())
	err = c.Call("denied", nil, nil)
	c.SetSpan(trace.Context{})
	root.Finish() // the error-flagged children force retention
	var re *RemoteError
	if !errors.As(err, &re) || re.RequestID == "" {
		t.Fatalf("want RemoteError with a request ID, got %v", err)
	}
	tree, ok := col.Tree(root.TraceID())
	if !ok {
		t.Fatalf("trace %s of a failed call not retained", root.TraceID())
	}
	notes := map[string]string{}
	for _, s := range tree.Spans {
		notes[s.Name] = s.Note
	}
	for _, name := range []string{"wire.call.denied", "wire.serve.denied"} {
		got, ok := notes[name]
		if !ok {
			t.Fatalf("no %s span in tree: %+v", name, tree.Spans)
		}
		if got != re.RequestID {
			t.Errorf("%s note = %q, want the error's request ID %q", name, got, re.RequestID)
		}
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

// TestSetSpanRaceWithConcurrentCalls pins the lock-free trace state:
// SetSpan swaps (set and clear) racing concurrent Calls must neither trip
// the race detector nor fail a call.
func TestSetSpanRaceWithConcurrentCalls(t *testing.T) {
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

	a := trace.Default().StartRoot("race-root-a")
	defer a.Finish()
	b := trace.Default().StartRoot("race-root-b")
	defer b.Finish()
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
				c.SetSpan(a.Context())
			case 1:
				c.SetSpan(b.Context())
			default:
				c.SetSpan(trace.Context{})
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
					t.Errorf("Call under SetSpan race: %v", err)
					return
				}
			}
		}()
	}
	callers.Wait()
	close(stop)
	swapper.Wait()
	// Correctness here is "no race detector report and no failed call"; the
	// atomic snapshot makes a torn context unrepresentable.
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
