// The binary envelope: the one frame body the wire protocol speaks. It is
// a compact positional encoding, so the kvstore publish path — millions of
// publishes per second across a fleet — spends no CPU on JSON for the
// envelope or its payload.
//
// # Frame layout (schema v1)
//
//	bytes 0-3 big-endian body length (≤ MaxMessageSize)
//	byte 0    kind: 0x01 request, 0x02 response
//	byte 1    flags
//	request:  method(str) id(str) trace(str) payload(rest of frame)
//	response: id(str) error(str) retry_after_ms(uvarint) payload(rest)
//	str:      uvarint length + bytes
//
// Request flags: bit0 = payload is schema-binary (else JSON bytes), bit1 =
// client accepts a schema-binary response payload. Response flags: bit0 =
// payload is schema-binary, bit1 = retryable (overload shed). Payloads ride
// as raw bytes either way, so methods without a binary payload codec (the
// granting plane's contract-bearing messages) keep JSON payloads inside the
// binary envelope.
//
// Every body is length-delimited, so a malformed one — garbage, a torn
// envelope, a JSON frame from a confused peer — never desyncs the stream:
// the whole body is consumed, the server answers with an error response,
// and the connection keeps serving (see serveFrame).
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"

	schemav1 "entitlement/schema/v1"
)

// Codec is kept only so existing ClientOptions literals compile.
//
// Deprecated: binary is the only codec; ignored.
type Codec int

// CodecBinary is kept only so existing ClientOptions literals compile.
//
// Deprecated: binary is the only codec; ignored.
const CodecBinary Codec = 1

// Frame kinds and flags of the binary envelope (schema v1).
const (
	binKindRequest  = 0x01
	binKindResponse = 0x02

	reqFlagBinaryPayload = 1 << 0 // payload is schema-binary, not JSON bytes
	reqFlagAcceptBinary  = 1 << 1 // client can decode a schema-binary reply

	respFlagBinaryPayload = 1 << 0
	respFlagRetryable     = 1 << 1
)

// ErrBadBinaryFrame reports a frame body that is not a well-formed binary
// envelope. Framing stays intact (the body was length-delimited), so
// servers answer it with an error response instead of hanging up.
var ErrBadBinaryFrame = errors.New("wire: malformed binary frame")

// binRequest is a decoded binary request envelope. All byte-slice fields
// alias the frame buffer: valid until the next frame is read into it.
type binRequest struct {
	method  []byte
	id      []byte
	trace   []byte
	payload []byte
	flags   byte
}

// binResponse is a decoded binary response envelope, aliasing like
// binRequest.
type binResponse struct {
	id           []byte
	errMsg       []byte
	retryAfterMS uint64
	payload      []byte
	flags        byte
}

// readBytesField consumes one uvarint-length-prefixed field.
func readBytesField(src []byte) ([]byte, []byte, error) {
	n, w := binary.Uvarint(src)
	if w <= 0 || n > uint64(len(src)-w) {
		return nil, nil, ErrBadBinaryFrame
	}
	return src[w : w+int(n)], src[w+int(n):], nil
}

// appendBytesField appends a uvarint-length-prefixed field.
func appendBytesField(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// appendStringField is appendBytesField for strings, avoiding a conversion.
func appendStringField(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodeBinRequest parses a binary request envelope. It never panics on
// arbitrary input (FuzzBinaryFrameDecode pins this).
func decodeBinRequest(body []byte) (r binRequest, err error) {
	if len(body) < 2 || body[0] != binKindRequest {
		return r, ErrBadBinaryFrame
	}
	r.flags = body[1]
	rest := body[2:]
	if r.method, rest, err = readBytesField(rest); err != nil {
		return r, err
	}
	if r.id, rest, err = readBytesField(rest); err != nil {
		return r, err
	}
	if r.trace, rest, err = readBytesField(rest); err != nil {
		return r, err
	}
	r.payload = rest
	return r, nil
}

// decodeBinResponse parses a binary response envelope; same guarantees as
// decodeBinRequest.
func decodeBinResponse(body []byte) (r binResponse, err error) {
	if len(body) < 2 || body[0] != binKindResponse {
		return r, ErrBadBinaryFrame
	}
	r.flags = body[1]
	rest := body[2:]
	if r.id, rest, err = readBytesField(rest); err != nil {
		return r, err
	}
	if r.errMsg, rest, err = readBytesField(rest); err != nil {
		return r, err
	}
	v, w := binary.Uvarint(rest)
	if w <= 0 {
		return r, ErrBadBinaryFrame
	}
	r.retryAfterMS = v
	r.payload = rest[w:]
	return r, nil
}

// appendBinRequestHeader appends the frame body up to (excluding) the
// payload; the caller appends payload bytes and then fixes up the length
// prefix. id arrives as bytes so the hot path never materializes it as a
// string.
func appendBinRequestHeader(dst []byte, flags byte, method string, id []byte, trace string) []byte {
	dst = append(dst, binKindRequest, flags)
	dst = appendStringField(dst, method)
	dst = appendBytesField(dst, id)
	return appendStringField(dst, trace)
}

// appendBinResponseHeader is the response-side mirror.
func appendBinResponseHeader(dst []byte, flags byte, id []byte, errMsg string, retryAfterMS int64) []byte {
	dst = append(dst, binKindResponse, flags)
	dst = appendBytesField(dst, id)
	dst = appendStringField(dst, errMsg)
	if retryAfterMS < 0 {
		retryAfterMS = 0
	}
	return binary.AppendUvarint(dst, uint64(retryAfterMS))
}

// readFrameInto reads one length-prefixed frame body into buf, growing it
// as needed, and returns the body view plus the (possibly regrown) buffer.
// The reuse is what makes the receive path allocation-free after the first
// frame. After ErrMessageTooLarge the header has been consumed but not the
// body, so the stream is desynced and the caller must drop the connection.
func readFrameInto(r *bufio.Reader, buf []byte) (body, kept []byte, err error) {
	// The length header is read into buf rather than a local array: a stack
	// array sliced into io.ReadFull escapes through the io.Reader interface
	// and would cost one heap allocation per frame.
	if cap(buf) < 4 {
		buf = make([]byte, 0, 512)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > MaxMessageSize {
		return nil, buf, ErrMessageTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	body = buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, buf, err
	}
	return body, buf, nil
}

// appendRequestID renders "<base>-<seq>" into dst without allocating — the
// hot path's replacement for fmt.Sprintf in requestID.
func appendRequestID(dst []byte, base string, seq uint64) []byte {
	dst = append(dst, base...)
	dst = append(dst, '-')
	return strconv.AppendUint(dst, seq, 10)
}

// Payload is one request's payload plus its encoding, handed to Handler.
// Payloads alias the connection's frame buffer: they are valid only for
// the duration of the handler call, which is exactly the decode-and-act
// window every handler in this repo uses. A handler that must retain bytes
// copies them.
type Payload struct {
	data   []byte
	binary bool
}

// Empty reports whether the request carried no payload.
func (p Payload) Empty() bool { return len(p.data) == 0 }

// Decode unmarshals the payload into v using whichever codec it arrived
// in: schema-binary via schemav1.WireUnmarshaler, JSON via encoding/json.
// A binary payload for a type with no binary codec is a protocol error —
// the two sides disagree about the schema, and guessing would be worse.
func (p Payload) Decode(v interface{}) error {
	if p.binary {
		u, ok := v.(schemav1.WireUnmarshaler)
		if !ok {
			return fmt.Errorf("wire: binary payload for %T, which has no binary codec", v)
		}
		return u.DecodeBinary(p.data)
	}
	return jsonUnmarshalPayload(p.data, v)
}

// jsonUnmarshalPayload decodes JSON payload bytes with the wire error
// prefix handlers and clients have always reported.
func jsonUnmarshalPayload(data []byte, v interface{}) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("wire: unmarshal payload: %w", err)
	}
	return nil
}
