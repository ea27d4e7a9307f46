package recordlog

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Golden records: one granting journal "dec" record and one black-box
// capture "span" record, each as JSON body and as the exact framed bytes the
// format has always written. Existing WAL directories and incident captures
// hold these bytes, so they must never change.
var golden = []struct {
	name, body, frame string
}{
	{
		name: "journal dec",
		body: `{"t":"dec","dec":{"sig":"sig-a","ids":["g-4","g-5"],"decs":[{"id":"g-4","npg":"Web","status":"approved","hoses":null},{"id":"g-5","npg":"Web","status":"rejected","hoses":null,"err":"no"}]}}`,
		frame: "000000bd25adda10" +
			"7b2274223a22646563222c22646563223a7b22736967223a227369672d61222c22696473223a5b22672d34222c22672d35225d2c2264656373223a5b7b226964223a22672d34222c226e7067223a22576562222c22737461747573223a22617070726f766564222c22686f736573223a6e756c6c7d2c7b226964223a22672d35222c226e7067223a22576562222c22737461747573223a2272656a6563746564222c22686f736573223a6e756c6c2c22657272223a226e6f227d5d7d7d",
	},
	{
		name: "capture span",
		body: `{"t":"span","span":{"at":"2026-01-01T00:00:00Z","host":"h1","contract":"C","trace_id":"h1-c9","failed_open":true,"stale_for":4000000000}}`,
		frame: "00000089dd2e898e" +
			"7b2274223a227370616e222c227370616e223a7b226174223a22323032362d30312d30315430303a30303a30305a222c22686f7374223a226831222c22636f6e7472616374223a2243222c2274726163655f6964223a2268312d6339222c226661696c65645f6f70656e223a747275652c227374616c655f666f72223a343030303030303030307d7d",
	},
}

// goldenStream is every golden record framed back to back.
func goldenStream(t testing.TB) (stream []byte, bounds []int64) {
	t.Helper()
	for _, g := range golden {
		b, err := hex.DecodeString(g.frame)
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, b...)
		bounds = append(bounds, int64(len(stream)))
	}
	return stream, bounds
}

// TestGoldenBytes pins the on-disk format: encoding a record body yields
// exactly the committed frame, and decoding the frame yields the body back.
func TestGoldenBytes(t *testing.T) {
	for _, g := range golden {
		got, err := Encode(json.RawMessage(g.body))
		if err != nil {
			t.Fatal(err)
		}
		if h := hex.EncodeToString(got); h != g.frame {
			t.Errorf("%s: Encode =\n%s\nwant\n%s", g.name, h, g.frame)
		}
		want, _ := hex.DecodeString(g.frame)
		recs, valid, truncated := Decode[json.RawMessage](bytes.NewReader(want), nil)
		if truncated || valid != int64(len(want)) || len(recs) != 1 || string(recs[0]) != g.body {
			t.Errorf("%s: Decode = %q valid=%d truncated=%v", g.name, recs, valid, truncated)
		}
	}
}

// TestDecodeTornAndCorrupt drives every invalid-tail shape through the
// decoder: it must keep the valid prefix, report truncation, and never
// error or panic.
func TestDecodeTornAndCorrupt(t *testing.T) {
	stream, bounds := goldenStream(t)
	prefix := func(n int64, tail ...byte) []byte {
		return append(append([]byte(nil), stream[:n]...), tail...)
	}
	flipped := prefix(int64(len(stream)))
	flipped[bounds[0]+headerSize] ^= 0x01
	var oversized [headerSize]byte
	binary.BigEndian.PutUint32(oversized[0:4], MaxRecord+1)
	notJSON, err := Encode(json.RawMessage(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	notJSON[headerSize] = 'x' // body "x}" with its checksum recomputed
	binary.BigEndian.PutUint32(notJSON[4:8], crc32.Checksum(notJSON[headerSize:], castagnoli))

	for _, tc := range []struct {
		name      string
		data      []byte
		accept    func(*json.RawMessage) bool
		wantRecs  int
		wantValid int64
	}{
		{name: "torn header", data: stream[:bounds[0]+3], wantRecs: 1, wantValid: bounds[0]},
		{name: "torn body", data: stream[:bounds[1]-2], wantRecs: 1, wantValid: bounds[0]},
		{name: "payload bit flip", data: flipped, wantRecs: 1, wantValid: bounds[0]},
		{name: "zero length", data: prefix(bounds[0], make([]byte, headerSize)...), wantRecs: 1, wantValid: bounds[0]},
		{name: "oversized length", data: prefix(bounds[0], oversized[:]...), wantRecs: 1, wantValid: bounds[0]},
		{name: "body not JSON", data: prefix(bounds[1], notJSON...), wantRecs: 2, wantValid: bounds[1]},
		{name: "rejected by accept", data: stream, wantRecs: 1, wantValid: bounds[0],
			accept: func(r *json.RawMessage) bool { return bytes.Contains(*r, []byte(`"t":"dec"`)) }},
		{name: "garbage", data: []byte("this is not a record log at all"), wantRecs: 0, wantValid: 0},
	} {
		got, valid, truncated := Decode(bytes.NewReader(tc.data), tc.accept)
		if !truncated {
			t.Errorf("%s: truncated=false", tc.name)
		}
		if len(got) != tc.wantRecs || valid != tc.wantValid {
			t.Errorf("%s: got %d records valid=%d, want %d records valid=%d",
				tc.name, len(got), valid, tc.wantRecs, tc.wantValid)
		}
	}
}

// TestParseName pins the generation-name grammar: only the exact form Name
// renders is a generation.
func TestParseName(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  uint64
		ok   bool
	}{
		{"wal-0000000000000009.log", 9, true},
		{"wal-0000000000000000.log", 0, true},
		{"wal-18446744073709551615.log", 1<<64 - 1, true},
		{"wal-9.log", 0, false},                     // wrong padding
		{"wal-00000000000000009.log", 0, false},     // over-padded
		{"wal-0000000000000009.log.bak", 0, false},  // trailing suffix junk
		{"wal-3.log~", 0, false},                    // editor backup
		{"wal-0000000000000007.logfoo", 0, false},   // suffix run-on
		{"wal-+000000000000009.log", 0, false},      // sign
		{"wal--000000000000009.log", 0, false},      // negative sign
		{"wal-00000000000000x9.log", 0, false},      // non-digit
		{"incident-0000000000000009.log", 0, false}, // wrong prefix
		{"wal-0000000000000009.cap", 0, false},      // wrong suffix
		{"wal-.log", 0, false},                      // empty
	} {
		gen, ok := ParseName(tc.name, "wal-", ".log")
		if gen != tc.gen || ok != tc.ok {
			t.Errorf("ParseName(%q) = %d, %v; want %d, %v", tc.name, gen, ok, tc.gen, tc.ok)
		}
		if ok && filepath.Base(Name("d", "wal-", gen, ".log")) != tc.name {
			t.Errorf("Name(%d) does not render %q", gen, tc.name)
		}
	}
}

// TestGens lists generations ascending, ignoring other files, and treats a
// missing directory as empty.
func TestGens(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{Name(dir, "wal-", 12, ".log"), Name(dir, "wal-", 3, ".log"), filepath.Join(dir, "README")} {
		if err := os.WriteFile(name, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := Gens(dir, "wal-", ".log")
	if err != nil || !reflect.DeepEqual(gens, []uint64{3, 12}) {
		t.Errorf("Gens = %v, %v; want [3 12]", gens, err)
	}
	gens, err = Gens(filepath.Join(dir, "missing"), "wal-", ".log")
	if err != nil || gens != nil {
		t.Errorf("Gens(missing dir) = %v, %v; want nil, nil", gens, err)
	}
}

// FuzzDecode throws arbitrary bytes at the decoder. It must never panic,
// must never claim more valid bytes than the input holds, must consume every
// byte of a clean decode, and — the load-bearing property — the prefix it
// reports valid must decode to the same records, cleanly, on its own:
// truncation always lands exactly on a record boundary, which is where a
// re-opened file is cut.
func FuzzDecode(f *testing.F) {
	clean, _ := goldenStream(f)
	f.Add(clean)                // well-formed stream
	f.Add(clean[:len(clean)-3]) // torn tail
	f.Add([]byte{})             // empty file
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5})
	corrupt := append([]byte(nil), clean...)
	corrupt[len(corrupt)/2] ^= 0x40 // bit flip mid-stream
	f.Add(corrupt)
	f.Add(append(append([]byte(nil), clean...), "trailing garbage past the last record"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, valid, truncated := Decode[json.RawMessage](bytes.NewReader(data), nil)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid = %d outside [0, %d]", valid, len(data))
		}
		if !truncated && valid != int64(len(data)) {
			t.Fatalf("clean decode but valid = %d of %d bytes", valid, len(data))
		}
		again, validAgain, truncAgain := Decode[json.RawMessage](bytes.NewReader(data[:valid]), nil)
		if truncAgain {
			t.Fatalf("valid prefix (%d bytes) reported truncated on replay", valid)
		}
		if validAgain != valid || !reflect.DeepEqual(again, got) {
			t.Fatalf("prefix replay: %q valid=%d, want %q valid=%d", again, validAgain, got, valid)
		}
	})
}
