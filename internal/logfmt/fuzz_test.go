package logfmt

import (
	"strings"
	"testing"
	"time"
)

// FuzzLogfmtRoundTrip checks that any record AppendRecord accepts survives an
// Unmarshal round trip exactly, and that Unmarshal never panics on arbitrary
// lines. Timestamps are built from unix seconds because the on-disk layout
// (RFC3339) has second precision.
func FuzzLogfmtRoundTrip(f *testing.F) {
	f.Add("machine-1", "free mp3 download", int64(1_200_000_000), uint8(2), "example.com/a")
	f.Add("m", "", int64(0), uint8(0), "")
	f.Add("x\ty", "tabbed", int64(1_700_000_000), uint8(1), "u\nrl")
	f.Fuzz(func(t *testing.T, machine, q string, sec int64, nclicks uint8, url string) {
		// Clamp to a non-negative range RFC3339 can encode (years stay < 2250);
		// AppendRecord does not validate years, so out-of-range times are a
		// formatting limitation, not a round-trip bug.
		sec = ((sec % (1 << 33)) + (1 << 33)) % (1 << 33)
		r := Record{MachineID: machine, Query: q, Time: time.Unix(sec, 0).UTC()}
		for i := 0; i < int(nclicks%5); i++ {
			r.Clicks = append(r.Clicks, Click{URL: url, Time: r.Time.Add(time.Duration(i) * time.Second)})
		}
		line, err := marshal(r)
		if err != nil {
			// AppendRecord rejected it (empty machine, tab/newline in a field,
			// unencodable year, ...) — nothing to round-trip, but the raw
			// fields must still never panic Unmarshal below.
			line = machine + "\t" + q + "\t" + url
		} else {
			got, err := Unmarshal(line)
			if err != nil {
				t.Fatalf("Unmarshal(marshal(r)) failed: %v\nline: %q", err, line)
			}
			if got.MachineID != r.MachineID || got.Query != r.Query || !got.Time.Equal(r.Time) {
				t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
			}
			if len(got.Clicks) != len(r.Clicks) {
				t.Fatalf("clicks count mismatch: %d vs %d", len(got.Clicks), len(r.Clicks))
			}
			for i := range r.Clicks {
				if got.Clicks[i].URL != r.Clicks[i].URL || !got.Clicks[i].Time.Equal(r.Clicks[i].Time) {
					t.Fatalf("click %d mismatch: %+v vs %+v", i, got.Clicks[i], r.Clicks[i])
				}
			}
		}
		// Arbitrary input must never panic the parser.
		_, _ = Unmarshal(line)
		_, _ = Unmarshal(strings.ToUpper(line))
	})
}
