package traffic

import (
	"strings"
	"testing"
)

// FuzzReadCSV drives the trace loader with arbitrary text; it must never
// panic — malformed rows produce errors.
// Run with: go test -fuzz=FuzzReadCSV ./internal/traffic
func FuzzReadCSV(f *testing.F) {
	f.Add("npg,class,src,dst,offset_seconds,bits_per_second\nAds,c2_low,A,B,0,100\nAds,c2_low,A,B,60,200\n")
	f.Add("Ads,c2_low,A,B,0,100\n")
	f.Add("")
	f.Add("a,b,c,d,e,f\n")
	f.Add("Ads,c2_low,A,B,nan,inf\nAds,c2_low,A,B,60,100\n")
	f.Fuzz(func(t *testing.T, data string) {
		ds, err := ReadCSV(strings.NewReader(data), DefaultStart)
		if err == nil && ds != nil {
			// Successful parses produce structurally sound sets.
			for i := range ds.Flows {
				fl := &ds.Flows[i]
				if fl.Series == nil || fl.Series.Len() < 2 || fl.Series.Step <= 0 {
					t.Fatalf("accepted malformed flow %+v", fl)
				}
				for _, v := range fl.Series.Values {
					if v < 0 {
						t.Fatal("accepted negative rate")
					}
				}
			}
		}
	})
}
