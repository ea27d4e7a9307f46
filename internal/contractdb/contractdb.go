// Package contractdb is the centralized contract database of §3.2/§5: "all
// contracts are stored in a database and the approved contracts of the
// current period need to be enforced on the production traffic". Agents
// query it for the entitled rate matching their host's flow set.
//
// Like kvstore, it offers an in-process Store and a TCP Server/Client pair;
// both satisfy Database.
package contractdb

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"time"

	"entitlement/internal/contract"
	"entitlement/internal/obs/trace"
	"entitlement/internal/topology"
	"entitlement/internal/wire"
	schemav1 "entitlement/schema/v1"
)

// Database is what enforcement agents depend on.
type Database interface {
	// EntitledRate returns the total approved entitled rate for the flow
	// set at time at, and whether any matching entitlement exists.
	EntitledRate(npg contract.NPG, class contract.Class, region topology.Region, dir contract.Direction, at time.Time) (float64, bool, error)
}

// Store is the in-memory contract database.
type Store struct {
	mu        sync.RWMutex
	contracts map[contract.NPG]contract.Contract
}

// NewStore creates an empty database.
func NewStore() *Store {
	return &Store{contracts: make(map[contract.NPG]contract.Contract)}
}

// Put validates and stores (or replaces) a contract.
func (s *Store) Put(c contract.Contract) error {
	if err := c.Validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.contracts[c.NPG] = c
	return nil
}

// Get returns the contract for npg.
func (s *Store) Get(npg contract.NPG) (contract.Contract, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.contracts[npg]
	return c, ok
}

// Delete removes a contract.
func (s *Store) Delete(npg contract.NPG) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.contracts, npg)
}

// Len returns the number of stored contracts.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.contracts)
}

// List returns every stored contract sorted by NPG.
func (s *Store) List() []contract.Contract {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]contract.Contract, 0, len(s.contracts))
	for _, c := range s.contracts {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].NPG < out[j].NPG })
	return out
}

// SLO returns the availability objective attached to npg's approved
// contract, for the conformance plane: the SLO is part of the approval
// record (§4.3 fixes it before admission), so enforcement-side burn
// accounting reads it from here rather than trusting the service.
func (s *Store) SLO(npg contract.NPG) (float64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.contracts[npg]
	if !ok || !c.Approved || c.SLO <= 0 {
		return 0, false
	}
	return float64(c.SLO), true
}

// Objectives returns every approved contract's availability SLO, keyed by
// NPG — the conformance engine's objective set.
func (s *Store) Objectives() map[string]float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]float64, len(s.contracts))
	for npg, c := range s.contracts {
		if c.Approved && c.SLO > 0 {
			out[string(npg)] = float64(c.SLO)
		}
	}
	return out
}

// EntitledRate implements Database. Only approved contracts are enforced;
// an unapproved contract's flow sets report no entitlement.
func (s *Store) EntitledRate(npg contract.NPG, class contract.Class, region topology.Region, dir contract.Direction, at time.Time) (float64, bool, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.contracts[npg]
	if !ok || !c.Approved {
		return 0, false, nil
	}
	rate := c.EntitledRate(class, region, dir, at)
	if rate == 0 {
		// Distinguish "no entitlement row" from "entitled to zero": scan.
		found := false
		for i := range c.Entitlements {
			e := &c.Entitlements[i]
			if e.Class == class && e.Region == region && e.Direction == dir && e.ActiveAt(at) {
				found = true
				break
			}
		}
		return 0, found, nil
	}
	return rate, true, nil
}

// --- TCP server/client ----------------------------------------------------

// The query/reply shapes are versioned schema contracts (schema/v1, pinned
// by `make vet-schema`): DBRateQuery/DBRateReply carry binary codecs (the
// per-cycle entitlement fetch), DBSLOQuery/DBSLOReply stay JSON-only. The
// put_contract/list payloads embed contract.Contract, registered as a
// schema by SchemaDefs.

// Server exposes a Store over TCP.
type Server struct {
	store *Store
	srv   *wire.Server
}

// NewServer serves store on l with default wire options.
func NewServer(l net.Listener, store *Store) *Server {
	return NewServerOpts(l, store, wire.ServerOptions{})
}

// NewServerOpts serves store on l with explicit wire hardening/logging
// options (the Logger surfaces client request IDs in this server's spans).
func NewServerOpts(l net.Listener, store *Store, opts wire.ServerOptions) *Server {
	s := &Server{store: store}
	s.srv = wire.NewServer(l, s.handle, opts)
	return s
}

// Addr returns the server address.
func (s *Server) Addr() string { return s.srv.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handle(tc trace.Context, method string, p wire.Payload) (reply interface{}, err error) {
	mRequests.With(method).Inc()
	defer func() {
		if err != nil {
			mRequestErrors.Inc()
		}
		mContracts.Set(float64(s.store.Len()))
	}()
	switch method {
	case "entitled_rate":
		var a schemav1.DBRateQuery
		if err := p.Decode(&a); err != nil {
			return nil, err
		}
		class, err := contract.ParseClass(a.Class)
		if err != nil {
			return nil, err
		}
		dir := contract.Egress
		if a.Dir == contract.Ingress.String() {
			dir = contract.Ingress
		}
		rate, found, err := s.store.EntitledRate(
			contract.NPG(a.NPG), class, topology.Region(a.Region), dir, time.Unix(a.AtUnix, 0).UTC())
		if err != nil {
			return nil, err
		}
		return &schemav1.DBRateReply{Rate: rate, Found: found}, nil
	case "get_slo":
		var a schemav1.DBSLOQuery
		if err := p.Decode(&a); err != nil {
			return nil, err
		}
		slo, found := s.store.SLO(contract.NPG(a.NPG))
		return &schemav1.DBSLOReply{SLO: slo, Found: found}, nil
	case "put_contract":
		var c contract.Contract
		if err := p.Decode(&c); err != nil {
			return nil, err
		}
		return nil, s.store.Put(c)
	case "list":
		return s.store.List(), nil
	default:
		return nil, fmt.Errorf("contractdb: unknown method %q", method)
	}
}

// Client is the remote Database. It inherits the wire client's failure
// behavior: per-call deadlines, broken-connection detection, and automatic
// re-dial with backoff.
type Client struct {
	c *wire.Client
}

// Dial connects to a contractdb server with default wire.ClientOptions.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, wire.ClientOptions{})
}

// DialOpts connects to a contractdb server with explicit failure options.
func DialOpts(addr string, opts wire.ClientOptions) (*Client, error) {
	c, err := wire.DialOpts(addr, opts)
	if err != nil {
		return nil, err
	}
	return &Client{c: c}, nil
}

// Connect builds a client without dialing; the connection is established
// lazily (with backoff) on first use.
func Connect(addr string, opts wire.ClientOptions) *Client {
	return &Client{c: wire.Connect(addr, opts)}
}

// EntitledRate implements Database.
func (c *Client) EntitledRate(npg contract.NPG, class contract.Class, region topology.Region, dir contract.Direction, at time.Time) (float64, bool, error) {
	var r schemav1.DBRateReply
	err := c.c.Call("entitled_rate", &schemav1.DBRateQuery{
		NPG: string(npg), Class: class.String(), Region: string(region),
		Dir: dir.String(), AtUnix: at.Unix(),
	}, &r)
	if err != nil {
		return 0, false, err
	}
	return r.Rate, r.Found, nil
}

// SLO fetches npg's contractual availability objective from the approval
// record.
func (c *Client) SLO(npg contract.NPG) (float64, bool, error) {
	var r schemav1.DBSLOReply
	if err := c.c.Call("get_slo", &schemav1.DBSLOQuery{NPG: string(npg)}, &r); err != nil {
		return 0, false, err
	}
	return r.SLO, r.Found, nil
}

// SetTrace forwards a trace ID to the wire client: subsequent request IDs
// carry it, correlating this client's calls with the caller's operation.
func (c *Client) SetTrace(trace string) { c.c.SetTrace(trace) }

// SetSpan forwards a span context to the wire client: subsequent calls
// become wire.call spans in the caller's trace, with the context carried on
// the request frame.
func (c *Client) SetSpan(ctx trace.Context) { c.c.SetSpan(ctx) }

// Put uploads a contract.
func (c *Client) Put(ct contract.Contract) error {
	return c.c.Call("put_contract", ct, nil)
}

// List fetches every contract.
func (c *Client) List() ([]contract.Contract, error) {
	var out []contract.Contract
	if err := c.c.Call("list", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Close closes the client connection.
func (c *Client) Close() error { return c.c.Close() }

var (
	_ Database = (*Store)(nil)
	_ Database = (*Client)(nil)
)

// SaveTo writes a JSON snapshot of every contract, for durability across
// restarts (the production database is replicated; a snapshot suffices for
// the single-node reproduction).
func (s *Store) SaveTo(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.List())
}

// LoadFrom replaces the store's contents with a snapshot written by SaveTo.
// Every contract is validated; on any error the store is left unchanged.
func (s *Store) LoadFrom(r io.Reader) error {
	var contracts []contract.Contract
	if err := json.NewDecoder(r).Decode(&contracts); err != nil {
		return fmt.Errorf("contractdb: decode snapshot: %w", err)
	}
	for i := range contracts {
		if err := contracts[i].Validate(); err != nil {
			return fmt.Errorf("contractdb: snapshot contract %d: %w", i, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.contracts = make(map[contract.NPG]contract.Contract, len(contracts))
	for _, c := range contracts {
		s.contracts[c.NPG] = c
	}
	return nil
}
