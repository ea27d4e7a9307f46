// Package recordlog is the one on-disk record format shared by the granting
// journal and the SLO incident black box: length-prefixed, CRC-checksummed
// JSON records in generation-numbered files.
//
// Record framing (all integers big-endian):
//
//	4 bytes  payload length n (0 < n <= MaxRecord)
//	4 bytes  CRC-32C (Castagnoli) of the payload
//	n bytes  payload: one JSON-encoded record
//
// Decoding keeps the valid prefix: it stops at the first record whose
// header, length, checksum or body is invalid, and never fails or panics on
// arbitrary bytes. Rotation, sync policy and pruning stay with each client,
// which know when a generation ends and what may be deleted.
package recordlog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// MaxRecord bounds one record's payload; a length prefix beyond it marks a
// corrupt (or torn) tail. Matches the wire layer's frame bound.
const MaxRecord = 16 << 20

// headerSize is the fixed per-record framing overhead.
const headerSize = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode frames one record; the returned buffer includes the header.
func Encode(v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("recordlog: encode: %w", err)
	}
	if len(body) > MaxRecord {
		return nil, fmt.Errorf("recordlog: record %d bytes exceeds %d", len(body), MaxRecord)
	}
	buf := make([]byte, headerSize+len(body))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(body)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(body, castagnoli))
	copy(buf[headerSize:], body)
	return buf, nil
}

// Decode reads records until EOF or the first invalid one. A record is
// invalid when its frame is, when its body does not unmarshal into T, or
// when accept (if non-nil) rejects it: the caller's shape check, since
// nothing after a record the caller cannot interpret can be replayed
// soundly. A torn or corrupt tail ends the decode with truncated=true and
// valid holding the byte offset of the last good record boundary — exactly
// where a re-opened file must be cut.
func Decode[T any](r io.Reader, accept func(*T) bool) (recs []T, valid int64, truncated bool) {
	var hdr [headerSize]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			// Clean EOF at a record boundary is a well-formed end; a
			// partial header is a torn tail.
			return recs, valid, !errors.Is(err, io.EOF)
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		if n == 0 || n > MaxRecord {
			return recs, valid, true
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return recs, valid, true
		}
		if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(hdr[4:8]) {
			return recs, valid, true
		}
		var rec T
		if json.Unmarshal(body, &rec) != nil || (accept != nil && !accept(&rec)) {
			return recs, valid, true
		}
		recs = append(recs, rec)
		valid += headerSize + int64(n)
	}
}

// Name returns the path of generation gen: prefix, gen as %016d, suffix.
func Name(dir, prefix string, gen uint64, suffix string) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", prefix, gen, suffix))
}

// ParseName returns the generation a base file name encodes. It accepts
// only the exact form Name renders, so editor backups, ".bak" copies and
// other stray files never list as generations.
func ParseName(name, prefix, suffix string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	if s, ok = strings.CutSuffix(s, suffix); !ok {
		return 0, false
	}
	gen, err := strconv.ParseUint(s, 10, 64)
	if err != nil || fmt.Sprintf("%016d", gen) != s {
		return 0, false
	}
	return gen, true
}

// Gens returns the generations present in dir, ascending. A missing
// directory holds none.
func Gens(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var gens []uint64
	for _, e := range entries {
		if g, ok := ParseName(e.Name(), prefix, suffix); ok {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(a, b int) bool { return gens[a] < gens[b] })
	return gens, nil
}
