// Package schemav1 holds version 1 of the wire schema contracts: the
// explicit, versioned shapes of every message that crosses a process
// boundary in this system — the RPC envelope itself, the rate-store
// publish/aggregate messages, and the contract-database queries. The
// granting service's shapes (which embed domain types) register themselves
// alongside these via their own packages; cmd/schemavet aggregates the full
// set.
//
// # Why schemas are contracts
//
// The paper's entitlement contracts are long-lived interfaces between
// parties; the wire messages that carry them get the same treatment. A
// schema here is not "whatever the struct happens to marshal as" — it is a
// fingerprinted, machine-checked shape. `make vet-schema` (cmd/schemavet)
// re-derives every fingerprint from the live Go types and compares them to
// the committed schema.lock; any drift fails CI until the change is made in
// a new schema version (a v2 package) or the lock is deliberately
// regenerated for a compatible change.
//
// # Compatibility policy
//
// Within one schema version (this package):
//
//   - BREAKING, never allowed in place: removing or renaming a field,
//     changing a field's type or JSON tag, reordering fields (the binary
//     codec is positional), changing a binary encoding. These require a new
//     version package (schema/v2) side by side.
//   - COMPATIBLE, allowed with a deliberate lock regen (`make vet-schema-update`,
//     reviewed in the diff): appending a new optional `omitempty` field at
//     the END of a struct that has no binary codec, or adding an entirely
//     new message type. Types with binary codecs are frozen — their layout
//     is positional, so even appends need a version bump.
//   - One envelope: every frame is the binary Request/Response envelope
//     (internal/wire has the layout). Payloads inside it are schema-binary
//     for the shapes with a binary codec and JSON for the rest. There is no
//     per-connection negotiation; Hello and HelloReply are retired shapes,
//     pinned in the lock until schema/v2.
//
// The full policy, and why the JSON framing went, lives in DESIGN.md §14.
package schemav1

import (
	"encoding/json"
	"reflect"
)

// Version is the schema contract version this package defines.
const Version = 1

// --- RPC envelope ---------------------------------------------------------

// Request is the RPC envelope sent by clients. On the wire its fields are
// encoded positionally in the binary envelope (see internal/wire); the JSON
// tags pin the shape's fingerprint.
type Request struct {
	Method string `json:"method"`
	// ID is the client-generated request ID; the server echoes it in the
	// Response. Optional for wire compatibility with bare senders.
	ID      string          `json:"id,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
	// Trace carries the caller's span context in W3C traceparent form
	// ("00-<traceid>-<spanid>-<flags>") when the client has a span attached.
	// Omitted when untraced; unknown or malformed values are ignored.
	Trace string `json:"trace,omitempty"`
}

// Response is the RPC envelope returned by servers, encoded like Request.
type Response struct {
	// ID echoes the request's ID, correlating the two sides' logs (and
	// letting the client detect a desynced stream).
	ID      string          `json:"id,omitempty"`
	Error   string          `json:"error,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
	// Retryable marks Error as overload shedding rather than rejection: the
	// same request is worth retrying once load drains. Old servers never set
	// it and old clients ignore it, so the field is compatible both ways.
	Retryable bool `json:"retryable,omitempty"`
	// RetryAfterMS carries the server's retry-after hint (milliseconds)
	// when Retryable is set; zero means no hint.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// Hello is a retired shape: the codec/version offer of the per-connection
// negotiation the wire protocol no longer performs (the binary envelope is
// the only framing). It stays in Defs, fingerprint-pinned, because removing
// a shipped schema is a breaking change; schema/v2 drops it.
type Hello struct {
	Codec   string `json:"codec"`
	Version int    `json:"version"`
}

// HelloReply is the retired answer to Hello, pinned for the same reason.
type HelloReply struct {
	Codec   string `json:"codec"`
	Version int    `json:"version"`
}

// --- Rate store (kvstore) -------------------------------------------------

// KVPut is the rate-publish message: the hot path of the whole system.
// Agents publish one per (flow set, host) per enforcement cycle. Frozen: it
// has a binary codec.
type KVPut struct {
	Key   string  `json:"key"`
	Value float64 `json:"value"`
	TTLMs int64   `json:"ttl_ms"`
}

// KVKey addresses one key (get, delete) or one prefix (sum). Frozen: it has
// a binary codec.
type KVKey struct {
	Key string `json:"key"`
}

// KVGetReply answers a get. Frozen: it has a binary codec.
type KVGetReply struct {
	Value float64 `json:"value"`
	Found bool    `json:"found"`
}

// KVSumReply answers a prefix aggregation. Frozen: it has a binary codec.
type KVSumReply struct {
	Sum float64 `json:"sum"`
}

// --- Contract database ----------------------------------------------------

// DBRateQuery asks for the entitled rate of one flow set at one instant.
// Frozen: it has a binary codec.
type DBRateQuery struct {
	NPG    string `json:"npg"`
	Class  string `json:"class"`
	Region string `json:"region"`
	Dir    string `json:"dir"`
	AtUnix int64  `json:"at_unix"`
}

// DBRateReply answers a DBRateQuery. Frozen: it has a binary codec.
type DBRateReply struct {
	Rate  float64 `json:"rate"`
	Found bool    `json:"found"`
}

// DBSLOQuery asks for the availability objective in one contract's approval
// record.
type DBSLOQuery struct {
	NPG string `json:"npg"`
}

// DBSLOReply answers a DBSLOQuery.
type DBSLOReply struct {
	SLO   float64 `json:"slo"`
	Found bool    `json:"found"`
}

// --- Registry -------------------------------------------------------------

// Def names one schema: a versioned message shape whose fingerprint is
// pinned in schema.lock. Binary marks shapes that additionally have a
// positional binary encoding (frozen even against appends).
type Def struct {
	// Name is the stable schema identifier, "<plane>.<shape>".
	Name string
	// Version is the schema contract version the shape belongs to.
	Version int
	// Type is the Go type whose exported/JSON surface is fingerprinted.
	Type reflect.Type
	// Binary records that the shape has a positional binary codec.
	Binary bool
}

// Defs returns the schemas this package owns, sorted by name. Shapes that
// embed domain types (granting submit/decide, contractdb put_contract)
// register through their own packages and are aggregated by cmd/schemavet.
func Defs() []Def {
	return []Def{
		{Name: "wire.request", Version: 1, Type: reflect.TypeOf(Request{}), Binary: true},
		{Name: "wire.response", Version: 1, Type: reflect.TypeOf(Response{}), Binary: true},
		{Name: "wire.negotiate_hello", Version: 1, Type: reflect.TypeOf(Hello{})},
		{Name: "wire.negotiate_reply", Version: 1, Type: reflect.TypeOf(HelloReply{})},
		{Name: "kvstore.put", Version: 1, Type: reflect.TypeOf(KVPut{}), Binary: true},
		{Name: "kvstore.key", Version: 1, Type: reflect.TypeOf(KVKey{}), Binary: true},
		{Name: "kvstore.get_reply", Version: 1, Type: reflect.TypeOf(KVGetReply{}), Binary: true},
		{Name: "kvstore.sum_reply", Version: 1, Type: reflect.TypeOf(KVSumReply{}), Binary: true},
		{Name: "contractdb.rate_query", Version: 1, Type: reflect.TypeOf(DBRateQuery{}), Binary: true},
		{Name: "contractdb.rate_reply", Version: 1, Type: reflect.TypeOf(DBRateReply{}), Binary: true},
		{Name: "contractdb.slo_query", Version: 1, Type: reflect.TypeOf(DBSLOQuery{})},
		{Name: "contractdb.slo_reply", Version: 1, Type: reflect.TypeOf(DBSLOReply{})},
	}
}
