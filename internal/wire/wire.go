// Package wire provides the framing and tiny RPC layer the run-time
// enforcement components speak over TCP: one length-prefixed binary
// request/response envelope, a connection-per-client server loop, and a
// serialized client. The rate store, the contract database and the
// granting service all build on it.
//
// Every frame is a 4-byte big-endian length followed by a binary envelope
// (binary.go has the layout), capped at MaxMessageSize. The payload inside
// the envelope is schema-binary for the shapes that have a binary codec
// (the per-cycle publish and entitlement fetch) and JSON for everything
// else (the granting plane's contract-bearing messages). A client's first
// Call is the first frame on a new connection: there is no handshake.
//
// The client is built for an unreliable fleet: every call carries a
// deadline, a connection that fails mid-call is marked broken (so framing
// can never desync on the shared connection) and re-dialed lazily with
// capped exponential backoff plus jitter, and errors are classified
// transient vs. permanent so callers can decide whether retrying is worth
// anything. The server side guards against idle or byte-dribbling peers
// with an optional per-connection read idle timeout and answers protocol
// violations with an error response instead of a silent disconnect.
//
// Every request carries a client-generated request ID which the server
// echoes back; both sides attach it to their slog spans (when a Logger is
// configured) and the client stamps it onto returned errors, so one
// enforcement cycle's RPC fan-out is correlatable end to end across
// processes. Client.SetTrace prefixes subsequent IDs with a caller-chosen
// trace ID (e.g. the enforcement cycle's), tying the fan-out together.
//
// On top of the request-ID correlation sits real distributed tracing:
// Client.SetSpan attaches a trace context (internal/obs/trace) to the
// client, every Call then starts a wire.call child span and propagates its
// context in the frame's optional Trace field, and the server parents a
// wire.serve span under it — so one operation's RPC fan-out is a single
// span tree across processes, not just a grep-able token. An empty Trace
// field costs one length byte and leaves the request untraced.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"entitlement/internal/obs/trace"
	schemav1 "entitlement/schema/v1"
)

// MaxMessageSize bounds a single frame; anything larger is a protocol error.
const MaxMessageSize = 16 << 20

// ErrMessageTooLarge is returned for frames exceeding MaxMessageSize.
var ErrMessageTooLarge = errors.New("wire: message exceeds size limit")

// ErrClientClosed is returned by Call after Close.
var ErrClientClosed = errors.New("wire: client closed")

// ErrBrokenConn is returned when the connection is broken and the client
// has no address to re-dial (it wrapped an existing net.Conn).
var ErrBrokenConn = errors.New("wire: connection broken")

// TransientError wraps a failure worth retrying: connection loss, dial
// failures, deadline expiry, or the backoff gate rejecting a call while a
// re-dial is pending. Permanent failures — a RemoteError (the server is up
// and answered), marshaling problems, oversized frames — are returned bare.
type TransientError struct {
	Err error
	// RequestID is the failed call's request ID, when the failure happened
	// inside Call (empty for raw transport helpers).
	RequestID string
}

// Error implements the error interface.
func (e *TransientError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("wire: transient [%s]: %v", e.RequestID, e.Err)
	}
	return fmt.Sprintf("wire: transient: %v", e.Err)
}

// Unwrap exposes the underlying error.
func (e *TransientError) Unwrap() error { return e.Err }

// Overloaded marks a handler error as load shedding: the server is healthy
// but refusing work, so the request is worth retrying after RetryAfter.
// Handlers wrap their typed overload errors in it; the server answers with
// a retryable response carrying the hint, which the client surfaces as an
// OverloadedError. errors.Is/As reach through to the wrapped error.
type Overloaded struct {
	Err error
	// RetryAfter is the server's hint for when capacity should be back;
	// zero means "soon, use your own backoff".
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *Overloaded) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying error.
func (e *Overloaded) Unwrap() error { return e.Err }

// OverloadedError is the client-side view of a shed request: transient by
// classification (retrying helps once load drains), with the server's
// retry-after hint attached for the caller's backoff to honor.
type OverloadedError struct {
	Method  string
	Message string
	// RetryAfter is the server's hint; zero means the server sent none.
	RetryAfter time.Duration
	// RequestID is the shed call's request ID, matching the server's span.
	RequestID string
}

// Error implements the error interface.
func (e *OverloadedError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("wire: overloaded from %s [%s]: %s (retry after %s)", e.Method, e.RequestID, e.Message, e.RetryAfter)
	}
	return fmt.Sprintf("wire: overloaded from %s: %s (retry after %s)", e.Method, e.Message, e.RetryAfter)
}

// IsTransient reports whether err is worth retrying: the failure came from
// the transport (lost connection, timeout, dial refusal) or the server shed
// the request under overload, rather than the remote handler rejecting it
// or the caller's own payload being broken.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	var te *TransientError
	if errors.As(err, &te) {
		return true
	}
	var oe *OverloadedError
	if errors.As(err, &oe) {
		return true
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return false
	}
	if errors.Is(err, ErrMessageTooLarge) || errors.Is(err, ErrClientClosed) {
		return false
	}
	// Raw transport errors that reached the caller unwrapped.
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) || errors.Is(err, ErrBrokenConn)
}

// Handler processes one request. The payload arrives with its encoding
// intact (Payload.Decode picks JSON or schema-binary), and the result is
// encoded schema-binary when it implements schemav1.AppendMarshaler and the
// client offered to accept it, JSON otherwise. The span context is the
// request's wire.serve span (zero when the request carried no trace), so
// handlers can parent their own spans — queue wait, decision, journal
// write — under it. Binary payloads alias the connection's frame buffer
// and are valid only for the duration of the call (see Payload).
type Handler func(tc trace.Context, method string, p Payload) (interface{}, error)

// ServerOptions harden a server against misbehaving peers.
type ServerOptions struct {
	// ReadIdleTimeout closes a connection whose next complete request does
	// not arrive within this window. The deadline is absolute per request,
	// so a byte-dribbling client cannot hold a goroutine by trickling one
	// byte at a time. Zero means no timeout.
	ReadIdleTimeout time.Duration
	// Logger, if set, emits one span per handled request (method,
	// request_id, took; Debug on success, Warn on handler error), carrying
	// the client's request ID so the two sides' logs line up.
	Logger *slog.Logger
	// Service labels this server's wire.serve spans (e.g. "contractdb").
	// Empty leaves the span on the process-wide collector default.
	Service string
}

// Server accepts connections and dispatches requests to a Handler.
type Server struct {
	listener net.Listener
	handler  Handler
	opts     ServerOptions

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewServer starts serving on l with h and the given hardening options. It
// returns immediately; use Close to stop.
func NewServer(l net.Listener, h Handler, opts ServerOptions) *Server {
	s := &Server{listener: l, handler: h, opts: opts, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.listener.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	mServerConns.Inc()
	defer func() {
		mServerConns.Dec()
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	sc := &serverConn{s: s, conn: conn, br: bufio.NewReader(conn), methods: make(map[string]string)}
	sc.serve()
}

// serverConn is one connection's serving state: the reusable scratch the
// loop needs to handle a request without allocating. Frames are read into
// rbuf, responses built in wbuf, and methods interns method-name strings so
// steady-state dispatch allocates for neither the frame nor the name.
type serverConn struct {
	s    *Server
	conn net.Conn
	br   *bufio.Reader

	rbuf, wbuf []byte
	methods    map[string]string
}

// maxInternedMethods caps the per-connection method-name cache; a peer
// inventing method names cannot grow it without bound.
const maxInternedMethods = 64

// serve reads binary envelopes into the connection's reusable frame buffer
// until the peer hangs up. Every frame is length-delimited, so even a
// malformed body is consumed whole — the loop answers it with an error
// response and keeps serving instead of desyncing.
func (sc *serverConn) serve() {
	s := sc.s
	for {
		if s.opts.ReadIdleTimeout > 0 {
			sc.conn.SetReadDeadline(time.Now().Add(s.opts.ReadIdleTimeout))
		}
		body, rbuf, err := readFrameInto(sc.br, sc.rbuf)
		sc.rbuf = rbuf
		if errors.Is(err, ErrMessageTooLarge) {
			// Tell the peer what went wrong before hanging up: the header
			// promised more bytes than we will read, so the stream cannot
			// be resynced and the connection must die.
			mServerErrors.Inc()
			sc.writeError(nil, ErrMessageTooLarge.Error())
			return
		}
		if err != nil {
			return
		}
		mServerBytesIn.Add(int64(4 + len(body)))
		if !sc.serveFrame(body) {
			return
		}
	}
}

// serveFrame handles one length-delimited frame, returning false when the
// connection must close.
func (sc *serverConn) serveFrame(body []byte) bool {
	s := sc.s
	req, derr := decodeBinRequest(body)
	if derr != nil {
		mServerErrors.Inc()
		if len(body) > 0 && body[0] == '{' {
			// A JSON frame: a peer from before the binary envelope, or a
			// middlebox splicing streams. Framing is intact (the body was
			// length-delimited), so reject it without desyncing — and echo
			// the request ID when the body parses, so the sender can
			// correlate the rejection.
			var jreq struct {
				ID string `json:"id"`
			}
			_ = json.Unmarshal(body, &jreq) // an unparseable body leaves the ID empty
			return sc.writeError([]byte(jreq.ID), "wire: received JSON frame; this server speaks only the binary envelope")
		}
		return sc.writeError(nil, fmt.Sprintf("wire: bad request: %v", derr))
	}
	// Intern the method name: steady-state traffic repeats a handful of
	// methods, so after warm-up neither dispatch nor the metrics allocate
	// for the name.
	method, ok := sc.methods[string(req.method)]
	if !ok {
		method = string(req.method)
		if len(sc.methods) < maxInternedMethods {
			sc.methods[method] = method
		}
	}
	mServerRequests.With(method).Inc()
	var sp trace.Span
	if len(req.trace) > 0 {
		if tc, ok := trace.Parse(string(req.trace)); ok {
			sp = trace.Default().StartChild(tc, "wire.serve."+method)
			if s.opts.Service != "" {
				sp.SetService(s.opts.Service)
			}
			sp.Annotate(string(req.id))
		}
	}
	p := Payload{data: req.payload, binary: req.flags&reqFlagBinaryPayload != 0}
	mServerInflight.Inc()
	start := time.Now()
	result, err := s.handler(sp.Context(), method, p)
	took := time.Since(start)
	mServerInflight.Dec()
	var respFlags byte
	errMsg := ""
	var retryMS int64
	if err != nil {
		mServerErrors.Inc()
		errMsg = err.Error()
		var ov *Overloaded
		if errors.As(err, &ov) {
			respFlags |= respFlagRetryable
			retryMS = ov.RetryAfter.Milliseconds()
			sp.Flag(trace.FlagShed)
		}
		sp.SetError(err)
	}
	if l := s.opts.Logger; l != nil {
		attrs := []any{
			slog.String("method", method),
			slog.String("request_id", string(req.id)),
			slog.Duration("took", took),
		}
		if err != nil {
			l.Warn("wire.serve", append(attrs, slog.Any("err", err))...)
		} else {
			l.Debug("wire.serve", attrs...)
		}
	}
	sp.Finish()
	// Build the response frame in the reusable write buffer: 4-byte length
	// placeholder, envelope header, then the payload in whichever codec the
	// result and the client's accept flag agree on.
	w := append(sc.wbuf[:0], 0, 0, 0, 0)
	if err != nil || result == nil {
		w = appendBinResponseHeader(w, respFlags, req.id, errMsg, retryMS)
	} else if am, ok := result.(schemav1.AppendMarshaler); ok && req.flags&reqFlagAcceptBinary != 0 {
		respFlags |= respFlagBinaryPayload
		w = appendBinResponseHeader(w, respFlags, req.id, "", 0)
		w = am.AppendBinary(w)
	} else if jb, merr := json.Marshal(result); merr != nil {
		mServerErrors.Inc()
		w = appendBinResponseHeader(w, respFlags, req.id, merr.Error(), 0)
	} else {
		w = appendBinResponseHeader(w, respFlags, req.id, "", 0)
		w = append(w, jb...)
	}
	sc.wbuf = w[:0]
	if len(w)-4 > MaxMessageSize {
		// The result cannot be framed. Answer with the size error instead:
		// the request was served and nothing desynced, so the connection
		// stays up and the client sees a permanent RemoteError rather than
		// a hang-up it would retry. Drop the oversized scratch buffer so an
		// idle connection does not pin it.
		mServerErrors.Inc()
		sc.wbuf = nil
		return sc.writeError(req.id, ErrMessageTooLarge.Error())
	}
	binary.BigEndian.PutUint32(w[:4], uint32(len(w)-4))
	if _, werr := sc.conn.Write(w); werr != nil {
		return false
	}
	mServerBytesOut.Add(int64(len(w)))
	return true
}

// writeError sends a payload-less error response (id may be nil when the
// request's ID could not be recovered).
func (sc *serverConn) writeError(id []byte, msg string) bool {
	w := append(sc.wbuf[:0], 0, 0, 0, 0)
	w = appendBinResponseHeader(w, 0, id, msg, 0)
	sc.wbuf = w[:0]
	binary.BigEndian.PutUint32(w[:4], uint32(len(w)-4))
	if _, err := sc.conn.Write(w); err != nil {
		return false
	}
	mServerBytesOut.Add(int64(len(w)))
	return true
}

// Close stops accepting and closes every live connection.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	err := s.listener.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

// ClientOptions tune the client's failure behavior. The zero value picks
// production defaults (see each field); negative durations disable the
// corresponding mechanism.
type ClientOptions struct {
	// DialTimeout bounds each (re-)dial attempt. Default 5s; negative
	// means no limit.
	DialTimeout time.Duration
	// CallTimeout is the per-call deadline covering write and read of one
	// round trip (applied via SetDeadline on the connection). Default 10s;
	// negative means no deadline.
	CallTimeout time.Duration
	// DisableReconnect stops the client from re-dialing a broken
	// connection; a broken client then fails every Call until Close. The
	// default (reconnect enabled) needs an address, so clients built with
	// NewClient around a raw conn never reconnect.
	DisableReconnect bool
	// MinBackoff and MaxBackoff bound the exponential re-dial backoff.
	// After a failed dial the client refuses further dial attempts until a
	// jittered delay in [backoff/2, backoff] has passed, doubling up to
	// MaxBackoff; calls during the gate fail fast with a TransientError
	// instead of hammering the dead peer. Defaults 50ms and 5s.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// Rand supplies backoff jitter. Default: seeded from the target
	// address, so a fleet of agents spreads its re-dials.
	Rand *rand.Rand
	// Now supplies the clock for backoff bookkeeping; defaults to
	// time.Now. Tests inject a fake.
	Now func() time.Time
	// Logger, if set, emits one span per Call (method, request_id, took;
	// Debug on success, Warn on failure). The request ID matches the span
	// the server logs for the same call.
	Logger *slog.Logger
	// Service labels this client's wire.call spans (e.g. "grantd"). Empty
	// leaves the span on the process-wide collector default.
	Service string
	// Deprecated: binary is the only codec; ignored.
	Codec Codec
}

func (o ClientOptions) withDefaults(addr string) ClientOptions {
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.MinBackoff == 0 {
		o.MinBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff == 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.Rand == nil {
		h := fnv.New64a()
		h.Write([]byte(addr))
		o.Rand = rand.New(rand.NewSource(int64(h.Sum64())))
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Client is a serialized RPC client over one connection. It is safe for
// concurrent use; calls are issued one at a time. A call that fails at the
// transport layer marks the connection broken — the next call re-dials
// (subject to backoff) rather than reusing a stream whose framing may be
// desynced.
type Client struct {
	callMu sync.Mutex // serializes Calls

	mu         sync.Mutex // guards connection state below
	conn       net.Conn
	br         *bufio.Reader
	addr       string
	opts       ClientOptions
	backoff    time.Duration
	nextDialAt time.Time
	closed     bool

	// Scratch buffers for the call path, guarded by callMu (one call at a
	// time): the request frame is built in wbuf, the response read into
	// rbuf, the request ID rendered into idbuf. Reuse across calls is what
	// makes the publish path allocation-free.
	wbuf, rbuf, idbuf []byte
	// everConnected distinguishes first connects from reconnects in the
	// dial metrics: a successful dial after it is set counts as a repair
	// of a broken connection.
	everConnected bool

	// Request-ID and trace state: idBase identifies this client instance,
	// reqSeq numbers its calls, and traceState is the optional caller trace
	// set via SetTrace/SetSpan. It uses the same lock-free atomics as the
	// request counter — an immutable snapshot swapped wholesale — so
	// concurrent Calls never see a torn prefix/context pair and never
	// contend with the connection mutex for it.
	idBase     string
	reqSeq     atomic.Uint64
	traceState atomic.Pointer[clientTrace]
}

// clientTrace is one immutable trace snapshot: the request-ID prefix plus,
// when set via SetSpan, the span context propagated in the request frame.
type clientTrace struct {
	prefix string
	ctx    trace.Context
}

// clientInstances distinguishes clients within one process; combined with
// a per-process salt it keeps request IDs unique across an agent fleet.
var clientInstances atomic.Uint64

var processSalt = func() uint32 {
	h := fnv.New32a()
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(time.Now().UnixNano()))
	h.Write(b[:])
	return h.Sum32()
}()

// newIDBase builds the per-client request-ID prefix.
func newIDBase(addr string) string {
	h := fnv.New32a()
	h.Write([]byte(addr))
	return fmt.Sprintf("%08x", h.Sum32()^processSalt^uint32(clientInstances.Add(1)<<24))
}

// SetTrace sets a trace ID prefixed onto every subsequent request ID (use
// "" to clear), so a multi-call operation — an enforcement cycle's fan-out
// to the rate store and contract database — shares one grep-able token
// across client and server logs. It is now a shim over the span-context
// API: a bare prefix with no propagated context. Use SetSpan to carry a
// real span tree across the wire.
func (c *Client) SetTrace(prefix string) {
	if prefix == "" {
		c.traceState.Store(nil)
		return
	}
	c.traceState.Store(&clientTrace{prefix: prefix})
}

// SetSpan ties every subsequent Call to ctx until cleared (zero/invalid ctx
// clears): request IDs gain the 32-hex trace ID prefix, each Call starts a
// wire.call child span under ctx, and the request frame carries the child's
// context so the server's wire.serve span joins the same tree.
func (c *Client) SetSpan(ctx trace.Context) {
	if !ctx.Valid() {
		c.traceState.Store(nil)
		return
	}
	c.traceState.Store(&clientTrace{prefix: ctx.TraceID(), ctx: ctx})
}

// requestID renders the ID for call seq from a traceState snapshot:
// "<trace>.<base>-<seq>" with a trace set, "<base>-<seq>" without. The
// call path renders the same bytes via appendRequestID instead, so this
// string is only materialized for spans, logs, and errors.
func (c *Client) requestID(st *clientTrace, seq uint64) string {
	if st != nil && st.prefix != "" {
		return fmt.Sprintf("%s.%s-%d", st.prefix, c.idBase, seq)
	}
	return fmt.Sprintf("%s-%d", c.idBase, seq)
}

// Dial connects a client to addr (TCP) with default options: 5s dial
// timeout, 10s per-call deadline, automatic reconnect with capped
// exponential backoff.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, ClientOptions{})
}

// DialOpts connects a client to addr with explicit options, failing if the
// first dial does.
func DialOpts(addr string, opts ClientOptions) (*Client, error) {
	c := Connect(addr, opts)
	c.mu.Lock()
	err := c.dialLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Connect builds a client for addr without dialing: the connection is
// established lazily on the first Call (and re-established after failures).
// It never fails, which is what long-running agents want at startup — the
// servers may simply not be up yet.
func Connect(addr string, opts ClientOptions) *Client {
	return &Client{addr: addr, opts: opts.withDefaults(addr), idBase: newIDBase(addr)}
}

// NewClient wraps an existing connection. Without an address the client
// cannot reconnect: once broken it stays broken.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReader(conn),
		// No CallTimeout default: the conn may be a pipe in tests, and the
		// historical NewClient contract had no deadlines.
		opts:   ClientOptions{DialTimeout: -1, CallTimeout: -1, DisableReconnect: true, Now: time.Now},
		idBase: newIDBase(conn.RemoteAddr().String()),
	}
}

// dialLocked establishes the connection; c.mu must be held. The first
// Call is the first frame on the new connection: there is no handshake.
func (c *Client) dialLocked() error {
	d := net.Dialer{}
	if c.opts.DialTimeout > 0 {
		d.Timeout = c.opts.DialTimeout
	}
	mClientDials.Inc()
	conn, err := d.Dial("tcp", c.addr)
	if err != nil {
		mClientDialFails.Inc()
		c.bumpBackoffLocked()
		return &TransientError{Err: err}
	}
	if c.everConnected {
		mClientReconnects.Inc()
	}
	c.everConnected = true
	c.conn = conn
	c.br = bufio.NewReader(conn)
	c.backoff = 0
	c.nextDialAt = time.Time{}
	return nil
}

// bumpBackoffLocked doubles the re-dial backoff (capped) and sets the next
// allowed dial time with jitter in [backoff/2, backoff].
func (c *Client) bumpBackoffLocked() {
	if c.backoff <= 0 {
		c.backoff = c.opts.MinBackoff
	} else {
		c.backoff *= 2
		if c.backoff > c.opts.MaxBackoff {
			c.backoff = c.opts.MaxBackoff
		}
	}
	wait := c.backoff
	if half := int64(c.backoff / 2); half > 0 {
		wait = c.backoff/2 + time.Duration(c.opts.Rand.Int63n(half+1))
	}
	c.nextDialAt = c.opts.Now().Add(wait)
}

// ensureConn returns a live connection, re-dialing if allowed.
func (c *Client) ensureConn() (net.Conn, *bufio.Reader, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, nil, ErrClientClosed
	}
	if c.conn != nil {
		return c.conn, c.br, nil
	}
	if c.addr == "" || c.opts.DisableReconnect {
		return nil, nil, ErrBrokenConn
	}
	if now := c.opts.Now(); now.Before(c.nextDialAt) {
		mClientBackoff.Inc()
		return nil, nil, &TransientError{
			Err: fmt.Errorf("reconnect to %s backed off for %s", c.addr, c.nextDialAt.Sub(now).Round(time.Millisecond)),
		}
	}
	if err := c.dialLocked(); err != nil {
		return nil, nil, err
	}
	return c.conn, c.br, nil
}

// fail marks conn broken so no later call can reuse a desynced stream.
func (c *Client) fail(conn net.Conn) {
	conn.Close()
	c.mu.Lock()
	if c.conn == conn {
		c.conn, c.br = nil, nil
		mClientBroken.Inc()
	}
	c.mu.Unlock()
}

// Call issues one request and decodes the response payload into reply
// (which may be nil to discard it). Transport failures — including the
// per-call deadline firing — come back wrapped in TransientError; a
// RemoteError means the server processed the request and rejected it.
// Either way the error carries this call's request ID, matching the span
// the server logged.
func (c *Client) Call(method string, args interface{}, reply interface{}) (err error) {
	st := c.traceState.Load()
	seq := c.reqSeq.Add(1)
	// The ID string is materialized only off the hot path — spans, logs,
	// error stamping. roundTrip renders the same bytes with appendRequestID
	// and never builds the string on success.
	id := ""
	if (st != nil && st.ctx.Valid()) || c.opts.Logger != nil {
		id = c.requestID(st, seq)
	}
	// With a span context attached, each Call is a wire.call child span
	// whose context rides the request frame; errors and overload sheds flag
	// the span, forcing tail sampling to keep the whole trace.
	var sp trace.Span
	var frameTrace string
	if st != nil && st.ctx.Valid() {
		sp = trace.Default().StartChild(st.ctx, "wire.call."+method)
		if c.opts.Service != "" {
			sp.SetService(c.opts.Service)
		}
		sp.Annotate(id)
		frameTrace = sp.Context().String()
	}
	mClientCalls.With(method).Inc()
	mClientInflight.Inc()
	var spanStart time.Time
	if c.opts.Logger != nil {
		spanStart = time.Now()
	}
	defer func() {
		mClientInflight.Dec()
		if err != nil {
			mClientErrors.With(classify(err)).Inc()
			if id == "" {
				id = c.requestID(st, seq)
			}
			// Stamp the ID onto the error for log correlation. Both error
			// types are freshly allocated per failure, so this mutation
			// cannot race another caller.
			var te *TransientError
			var re *RemoteError
			var oe *OverloadedError
			if errors.As(err, &te) {
				te.RequestID = id
			} else if errors.As(err, &re) {
				re.RequestID = id
			} else if errors.As(err, &oe) {
				oe.RequestID = id
				sp.Flag(trace.FlagShed)
			}
			sp.SetError(err)
		}
		sp.Finish()
		if l := c.opts.Logger; l != nil {
			attrs := []any{
				slog.String("method", method),
				slog.String("request_id", id),
				slog.Duration("took", time.Since(spanStart)),
			}
			if err != nil {
				l.Warn("wire.call", append(attrs, slog.Any("err", err))...)
			} else {
				l.Debug("wire.call", attrs...)
			}
		}
	}()
	c.callMu.Lock()
	defer c.callMu.Unlock()
	conn, br, err := c.ensureConn()
	if err != nil {
		return err
	}
	// Latency is measured only for calls that reached the transport;
	// backoff fast-fails above would otherwise flood the histogram with
	// near-zero samples. Traced calls stamp their trace ID as the bucket's
	// exemplar, linking a latency outlier straight to its span tree.
	start := time.Now()
	defer func() {
		if tid := sp.TraceID(); tid != "" {
			mClientCallSec.With(method).ObserveSinceExemplar(start, tid)
		} else {
			mClientCallSec.With(method).ObserveSince(start)
		}
	}()
	if c.opts.CallTimeout > 0 {
		conn.SetDeadline(c.opts.Now().Add(c.opts.CallTimeout))
	}
	return c.roundTrip(conn, br, st, seq, method, frameTrace, args, reply)
}

// roundTrip issues one call on the connection. The frame is built in the
// client's reusable scratch buffer — envelope header then payload,
// schema-binary when args implements schemav1.AppendMarshaler, JSON bytes
// otherwise — and the response is read into a second reusable buffer, so a
// publish round trip allocates nothing after warm-up.
// callMu is held; the per-call deadline was set by Call.
func (c *Client) roundTrip(conn net.Conn, br *bufio.Reader, st *clientTrace, seq uint64, method, frameTrace string, args, reply interface{}) error {
	prefix := ""
	if st != nil {
		prefix = st.prefix
	}
	idb := appendRequestID(c.idbuf[:0], prefix, c.idBase, seq)
	c.idbuf = idb[:0]
	var flags byte
	bm, binArgs := args.(schemav1.AppendMarshaler)
	if args != nil && binArgs {
		flags |= reqFlagBinaryPayload
	}
	if _, ok := reply.(schemav1.WireUnmarshaler); ok {
		flags |= reqFlagAcceptBinary
	}
	w := append(c.wbuf[:0], 0, 0, 0, 0) // length prefix, fixed up below
	w = appendBinRequestHeader(w, flags, method, idb, frameTrace)
	if args != nil {
		if binArgs {
			w = bm.AppendBinary(w)
		} else {
			jb, merr := json.Marshal(args)
			if merr != nil {
				c.wbuf = w[:0]
				return fmt.Errorf("wire: marshal args: %w", merr)
			}
			w = append(w, jb...)
		}
	}
	c.wbuf = w[:0]
	if len(w)-4 > MaxMessageSize {
		return ErrMessageTooLarge
	}
	binary.BigEndian.PutUint32(w[:4], uint32(len(w)-4))
	if _, err := conn.Write(w); err != nil {
		c.fail(conn)
		return &TransientError{Err: err}
	}
	mClientBytesOut.Add(int64(len(w)))
	body, rbuf, err := readFrameInto(br, c.rbuf)
	c.rbuf = rbuf
	if err != nil {
		c.fail(conn)
		return &TransientError{Err: err}
	}
	mClientBytesIn.Add(int64(4 + len(body)))
	resp, err := decodeBinResponse(body)
	if err != nil {
		// The body was length-delimited so framing is intact, but a server
		// sending malformed envelopes is not to be trusted.
		c.fail(conn)
		return &TransientError{Err: err}
	}
	if c.opts.CallTimeout > 0 {
		conn.SetDeadline(time.Time{})
	}
	if len(resp.id) != 0 && !bytesEqual(resp.id, idb) {
		c.fail(conn)
		return &TransientError{Err: fmt.Errorf("wire: response ID %q does not match request %q", resp.id, idb)}
	}
	if len(resp.errMsg) != 0 {
		if resp.flags&respFlagRetryable != 0 {
			return &OverloadedError{
				Method: method, Message: string(resp.errMsg),
				RetryAfter: time.Duration(resp.retryAfterMS) * time.Millisecond,
			}
		}
		return &RemoteError{Method: method, Message: string(resp.errMsg)}
	}
	if reply != nil && len(resp.payload) != 0 {
		if resp.flags&respFlagBinaryPayload != 0 {
			u, ok := reply.(schemav1.WireUnmarshaler)
			if !ok {
				// Servers only binary-encode when the request offered
				// reqFlagAcceptBinary, so this is a server bug.
				c.fail(conn)
				return &TransientError{Err: fmt.Errorf("wire: unsolicited binary payload for %T", reply)}
			}
			return u.DecodeBinary(resp.payload)
		}
		return jsonUnmarshalPayload(resp.payload, reply)
	}
	return nil
}

// bytesEqual avoids pulling bytes.Equal into the hot path's import set.
func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Close closes the underlying connection. It is safe to call concurrently
// with an in-flight Call, which then fails with a transport error.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.conn, c.br = nil, nil
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// RemoteError is a server-side failure surfaced to the caller: the server
// is reachable and answered, so retrying the identical request is unlikely
// to help (permanent by IsTransient's classification).
type RemoteError struct {
	Method  string
	Message string
	// RequestID is the failed call's request ID, matching the server's
	// span for the same request.
	RequestID string
}

// Error implements the error interface.
func (e *RemoteError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("wire: remote error from %s [%s]: %s", e.Method, e.RequestID, e.Message)
	}
	return fmt.Sprintf("wire: remote error from %s: %s", e.Method, e.Message)
}
