// Package kvstore is the reproduction of the distributed key-value store
// the enforcement agents publish their flow rates through: "each agent
// publishes flow rate information (bits/sec) periodically using Meta's
// internal distributed key-value store. These rates are aggregated remotely
// across the entire service and read by the agent periodically" (§5.1).
//
// The store keeps TTL'd float64 entries and supports prefix aggregation
// (summing every host's published rate for one service). It can be used
// in-process (Store) or over TCP (Server/Client via the wire protocol); both
// satisfy RateStore, so agents are oblivious to the deployment shape.
package kvstore

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"entitlement/internal/obs/trace"
	"entitlement/internal/wire"
	schemav1 "entitlement/schema/v1"

	"net"
)

// RateStore is the interface enforcement agents depend on.
type RateStore interface {
	// Put stores value under key with the given time-to-live.
	Put(key string, value float64, ttl time.Duration) error
	// Get returns the value and whether it is present (and unexpired).
	Get(key string) (float64, bool, error)
	// SumPrefix sums all live values whose keys start with prefix — the
	// remote aggregation of per-host rates into a service TotalRate.
	SumPrefix(prefix string) (float64, error)
	// Delete removes a key.
	Delete(key string) error
}

// entry is one stored value. It carries its own map key so Put can intern:
// a repeat publish looks the old entry up first and reuses its stored key,
// which keeps the server's put path allocation-free even when the incoming
// key aliases a reused frame buffer (map lookups with string(bytes)-style
// keys don't allocate; only genuinely new keys are cloned).
type entry struct {
	key     string
	value   float64
	expires time.Time // zero = never
}

// Store is the in-memory implementation. The zero value is not usable; call
// New. Time is injectable so simulations control expiry deterministically.
type Store struct {
	mu   sync.RWMutex
	data map[string]entry
	now  func() time.Time
}

// New creates an empty store using the real clock.
func New() *Store { return NewWithClock(time.Now) }

// NewWithClock creates a store with an injected clock.
func NewWithClock(now func() time.Time) *Store {
	return &Store{data: make(map[string]entry), now: now}
}

// Put implements RateStore. A non-positive ttl stores the value without
// expiry.
func (s *Store) Put(key string, value float64, ttl time.Duration) error {
	if key == "" {
		return fmt.Errorf("kvstore: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := entry{value: value}
	if ttl > 0 {
		e.expires = s.now().Add(ttl)
	}
	// Intern the key (see entry): steady-state republishes hit the lookup
	// and reuse the stored key; only first-time keys are cloned. The clone
	// also protects the map when key aliases a caller-owned buffer.
	if old, ok := s.data[key]; ok {
		e.key = old.key
	} else {
		e.key = strings.Clone(key)
	}
	s.data[e.key] = e
	return nil
}

// Get implements RateStore.
func (s *Store) Get(key string) (float64, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.data[key]
	if !ok || s.expired(e) {
		return 0, false, nil
	}
	return e.value, true, nil
}

// SumPrefix implements RateStore.
func (s *Store) SumPrefix(prefix string) (float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sum := 0.0
	for k, e := range s.data {
		if strings.HasPrefix(k, prefix) && !s.expired(e) {
			sum += e.value
		}
	}
	return sum, nil
}

// Delete implements RateStore.
func (s *Store) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.data, key)
	return nil
}

// Keys returns the live keys with the given prefix, sorted. Useful for
// debugging and tests.
func (s *Store) Keys(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for k, e := range s.data {
		if strings.HasPrefix(k, prefix) && !s.expired(e) {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// Len returns the number of stored entries, including expired ones not yet
// compacted — the footprint a leaky deployment would grow without bound.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}

// Compact removes expired entries; long-running deployments should call it
// periodically.
func (s *Store) Compact() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := 0
	for k, e := range s.data {
		if s.expired(e) {
			delete(s.data, k)
			removed++
		}
	}
	return removed
}

func (s *Store) expired(e entry) bool {
	return !e.expires.IsZero() && s.now().After(e.expires)
}

// --- TCP server/client ----------------------------------------------------

// The message shapes are versioned schema contracts (schema/v1, pinned by
// `make vet-schema`): KVPut, KVKey, KVGetReply, KVSumReply. All four carry
// binary codecs, so the publish path runs end to end without JSON.

// Arg/reply pools keep the put and aggregate paths allocation-free: passing
// a pooled pointer through wire.Call's interface{} parameters stores the
// pointer without boxing, where a stack-local struct would escape per call.
var (
	putPool = sync.Pool{New: func() interface{} { return new(schemav1.KVPut) }}
	keyPool = sync.Pool{New: func() interface{} { return new(schemav1.KVKey) }}
)

// ServerOptions tune the TCP server.
type ServerOptions struct {
	// CompactEvery sweeps expired entries from the backing store on this
	// period, so rates from dead hosts do not accumulate forever. Zero
	// picks the 1-minute default; negative disables compaction.
	CompactEvery time.Duration
	// Wire passes hardening options (read idle timeout) to the underlying
	// wire server.
	Wire wire.ServerOptions
}

// Server exposes a Store over the wire protocol and keeps it compacted.
type Server struct {
	store    *Store
	srv      *wire.Server
	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewServer serves store on l with default options (1-minute compaction).
func NewServer(l net.Listener, store *Store) *Server {
	return NewServerOpts(l, store, ServerOptions{})
}

// NewServerOpts serves store on l with explicit options.
func NewServerOpts(l net.Listener, store *Store, opts ServerOptions) *Server {
	s := &Server{store: store, stop: make(chan struct{})}
	s.srv = wire.NewServer(l, s.handle, opts.Wire)
	every := opts.CompactEvery
	if every == 0 {
		every = time.Minute
	}
	if every > 0 {
		s.wg.Add(1)
		go s.compactLoop(every)
	}
	return s
}

func (s *Server) compactLoop(every time.Duration) {
	defer s.wg.Done()
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			removed := s.store.Compact()
			mCompactions.Inc()
			mCompacted.Add(int64(removed))
			mEntries.Set(float64(s.store.Len()))
		case <-s.stop:
			return
		}
	}
}

// Addr returns the server address.
func (s *Server) Addr() string { return s.srv.Addr().String() }

// Close shuts the server down (idempotent).
func (s *Server) Close() error {
	s.stopOnce.Do(func() { close(s.stop) })
	err := s.srv.Close()
	s.wg.Wait()
	return err
}

func (s *Server) handle(tc trace.Context, method string, p wire.Payload) (reply interface{}, err error) {
	mRequests.With(method).Inc()
	defer func() {
		if err != nil {
			mRequestErrors.Inc()
		}
		mEntries.Set(float64(s.store.Len()))
	}()
	switch method {
	case "put":
		// The system's hot path: pooled args (a stack struct would escape
		// through Decode's interface{} parameter) and a nil reply, so a
		// binary-codec publish is handled without a single allocation after
		// warm-up. The decoded Key may alias the connection's frame buffer;
		// Store.Put interns before retaining it.
		a := putPool.Get().(*schemav1.KVPut)
		if err := p.Decode(a); err != nil {
			putPool.Put(a)
			return nil, err
		}
		err := s.store.Put(a.Key, a.Value, time.Duration(a.TTLMs)*time.Millisecond)
		*a = schemav1.KVPut{}
		putPool.Put(a)
		return nil, err
	case "get":
		a := keyPool.Get().(*schemav1.KVKey)
		if err := p.Decode(a); err != nil {
			keyPool.Put(a)
			return nil, err
		}
		v, ok, err := s.store.Get(a.Key)
		*a = schemav1.KVKey{}
		keyPool.Put(a)
		if err != nil {
			return nil, err
		}
		return &schemav1.KVGetReply{Value: v, Found: ok}, nil
	case "sum":
		a := keyPool.Get().(*schemav1.KVKey)
		if err := p.Decode(a); err != nil {
			keyPool.Put(a)
			return nil, err
		}
		sum, err := s.store.SumPrefix(a.Key)
		*a = schemav1.KVKey{}
		keyPool.Put(a)
		if err != nil {
			return nil, err
		}
		return &schemav1.KVSumReply{Sum: sum}, nil
	case "delete":
		a := keyPool.Get().(*schemav1.KVKey)
		if err := p.Decode(a); err != nil {
			keyPool.Put(a)
			return nil, err
		}
		err := s.store.Delete(a.Key)
		*a = schemav1.KVKey{}
		keyPool.Put(a)
		return nil, err
	default:
		return nil, fmt.Errorf("kvstore: unknown method %q", method)
	}
}

// Client is the remote RateStore. It inherits the wire client's failure
// behavior: per-call deadlines, broken-connection detection, and automatic
// re-dial with backoff, so a dead server degrades agents instead of
// wedging them.
type Client struct {
	c *wire.Client
}

// Dial connects to a kvstore server with default wire.ClientOptions.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, wire.ClientOptions{})
}

// DialOpts connects to a kvstore server with explicit failure options.
func DialOpts(addr string, opts wire.ClientOptions) (*Client, error) {
	c, err := wire.DialOpts(addr, opts)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// Connect builds a client without dialing; the connection is established
// lazily (with backoff) on first use, so agents can start before their
// servers do.
func Connect(addr string, opts wire.ClientOptions) *Client {
	return &Client{c: wire.Connect(addr, opts)}
}

// SetTrace forwards a trace ID to the wire client: subsequent request IDs
// carry it, correlating this client's calls with the caller's operation
// (e.g. one enforcement cycle).
func (c *Client) SetTrace(trace string) { c.c.SetTrace(trace) }

// SetSpan forwards a span context to the wire client: subsequent calls
// become wire.call spans in the caller's trace, with the context carried on
// the request frame.
func (c *Client) SetSpan(ctx trace.Context) { c.c.SetSpan(ctx) }

// Put implements RateStore. The pooled args, the schema-binary codec, and
// the wire client's frame-buffer reuse make the whole publish
// allocation-free.
func (c *Client) Put(key string, value float64, ttl time.Duration) error {
	a := putPool.Get().(*schemav1.KVPut)
	a.Key, a.Value, a.TTLMs = key, value, ttl.Milliseconds()
	err := c.c.Call("put", a, nil)
	*a = schemav1.KVPut{}
	putPool.Put(a)
	return err
}

// Get implements RateStore.
func (c *Client) Get(key string) (float64, bool, error) {
	a := keyPool.Get().(*schemav1.KVKey)
	a.Key = key
	var r schemav1.KVGetReply
	err := c.c.Call("get", a, &r)
	*a = schemav1.KVKey{}
	keyPool.Put(a)
	if err != nil {
		return 0, false, err
	}
	return r.Value, r.Found, nil
}

// SumPrefix implements RateStore.
func (c *Client) SumPrefix(prefix string) (float64, error) {
	a := keyPool.Get().(*schemav1.KVKey)
	a.Key = prefix
	var r schemav1.KVSumReply
	err := c.c.Call("sum", a, &r)
	*a = schemav1.KVKey{}
	keyPool.Put(a)
	if err != nil {
		return 0, err
	}
	return r.Sum, nil
}

// Delete implements RateStore.
func (c *Client) Delete(key string) error {
	a := keyPool.Get().(*schemav1.KVKey)
	a.Key = key
	err := c.c.Call("delete", a, nil)
	*a = schemav1.KVKey{}
	keyPool.Put(a)
	return err
}

// Close closes the client connection.
func (c *Client) Close() error { return c.c.Close() }

// RateKey builds the canonical key an agent publishes its rate under:
// rates/<npg>/<class>/<region>/<host>. SumPrefix(RatePrefix(...)) then
// aggregates the service.
func RateKey(npg, class, region, host string) string {
	return fmt.Sprintf("rates/%s/%s/%s/%s", npg, class, region, host)
}

// RatePrefix is the aggregation prefix for a (npg, class, region) flow set.
func RatePrefix(npg, class, region string) string {
	return fmt.Sprintf("rates/%s/%s/%s/", npg, class, region)
}

var (
	_ RateStore = (*Store)(nil)
	_ RateStore = (*Client)(nil)
)
