package granting

import (
	"bytes"
	"testing"

	"entitlement/internal/recordlog"
)

// FuzzJournalReplay throws arbitrary bytes at the journal replay path:
// folding whatever the decoder accepts into a recovered state must never
// panic (decoded records are shape-checked but field values are arbitrary).
// The valid-prefix property of the framing itself is recordlog's FuzzDecode.
func FuzzJournalReplay(f *testing.F) {
	recs := walTestRecords()
	var clean bytes.Buffer
	for i := range recs {
		b, err := recordlog.Encode(&recs[i])
		if err != nil {
			f.Fatal(err)
		}
		clean.Write(b)
	}
	f.Add(clean.Bytes())                 // well-formed stream
	f.Add(clean.Bytes()[:clean.Len()-3]) // torn tail
	f.Add([]byte{})                      // empty journal
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3, 4, 5})
	corrupt := append([]byte(nil), clean.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0x40 // bit flip mid-stream
	f.Add(corrupt)
	garbage := append([]byte(nil), clean.Bytes()...)
	f.Add(append(garbage, []byte("trailing garbage past the last record")...))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, _, _ := recordlog.Decode(bytes.NewReader(data), (*walRecord).shapeOK)
		st := &Recovered{}
		for i := range got {
			st.applyWALRecord(&got[i])
		}
	})
}
