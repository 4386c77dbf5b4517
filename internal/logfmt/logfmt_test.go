package logfmt

import (
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2026, 1, 15, 0, 8, 41, 0, time.UTC)

// marshal is AppendRecord as a string, the shape the tests compare.
func marshal(r Record) (string, error) {
	b, err := AppendRecord(nil, r)
	return string(b), err
}

func sample() Record {
	return Record{
		MachineID: "xxx",
		Query:     "q1",
		Time:      t0,
		Clicks: []Click{
			{URL: "aaa.com", Time: t0.Add(25 * time.Second)},
			{URL: "bbb.com", Time: t0.Add(40 * time.Second)},
		},
	}
}

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	r := sample()
	line, err := marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(line)
	if err != nil {
		t.Fatal(err)
	}
	if got.MachineID != r.MachineID || got.Query != r.Query || !got.Time.Equal(r.Time) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
	if len(got.Clicks) != 2 || got.Clicks[0].URL != "aaa.com" || !got.Clicks[1].Time.Equal(r.Clicks[1].Time) {
		t.Fatalf("clicks mismatch: %+v", got.Clicks)
	}
}

func TestMarshalRejectsBadFields(t *testing.T) {
	for name, r := range map[string]Record{
		"empty machine": {Query: "q", Time: t0},
		"tab in query":  {MachineID: "m", Query: "a\tb", Time: t0},
		"tab in url":    {MachineID: "m", Query: "q", Time: t0, Clicks: []Click{{URL: "a\tb", Time: t0}}},
	} {
		if _, err := marshal(r); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

func TestUnmarshalRejectsMalformed(t *testing.T) {
	good, _ := marshal(sample())
	cases := map[string]string{
		"too few fields":     "a\tb\tc",
		"bad timestamp":      "m\tq\tnot-a-time\t0",
		"bad click count":    strings.Replace(good, "\t2\t", "\tx\t", 1),
		"negative clicks":    "m\tq\t" + t0.Format(time.RFC3339) + "\t-1",
		"click field miss":   strings.Replace(good, "\t2\t", "\t3\t", 1),
		"bad click time":     strings.Replace(good, t0.Add(25*time.Second).Format(time.RFC3339), "junk", 1),
		"extra click fields": good + "\textra",
	}
	for name, line := range cases {
		if _, err := Unmarshal(line); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

func TestUnmarshalZeroClicks(t *testing.T) {
	r := Record{MachineID: "m", Query: "no clicks", Time: t0}
	line, err := marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(line)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Clicks) != 0 {
		t.Fatalf("expected no clicks, got %d", len(got.Clicks))
	}
}

func TestWriterReaderStream(t *testing.T) {
	var buf strings.Builder
	w := NewWriter(&buf)
	const n = 100
	for i := 0; i < n; i++ {
		r := sample()
		r.Time = t0.Add(time.Duration(i) * time.Minute)
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != n {
		t.Fatalf("Count = %d, want %d", w.Count(), n)
	}
	rd := NewReader(strings.NewReader(buf.String()))
	recs, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != n {
		t.Fatalf("read %d records, want %d", len(recs), n)
	}
	for i, r := range recs {
		want := t0.Add(time.Duration(i) * time.Minute)
		if !r.Time.Equal(want) {
			t.Fatalf("record %d time = %v, want %v", i, r.Time, want)
		}
	}
}

func TestReaderSkipsBlankLinesAndCRLF(t *testing.T) {
	line, _ := marshal(sample())
	input := "\n" + line + "\r\n\n" + line + "\n"
	recs, err := NewReader(strings.NewReader(input)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d records, want 2", len(recs))
	}
}

func TestReaderReportsLineNumber(t *testing.T) {
	line, _ := marshal(sample())
	input := line + "\ngarbage line\n"
	rd := NewReader(strings.NewReader(input))
	if _, err := rd.Read(); err != nil {
		t.Fatal(err)
	}
	_, err := rd.Read()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse error", err)
	}
}

func TestReaderEOF(t *testing.T) {
	rd := NewReader(strings.NewReader(""))
	if _, err := rd.Read(); err != io.EOF {
		t.Fatalf("err = %v, want io.EOF", err)
	}
}

func TestWriterStickyError(t *testing.T) {
	w := NewWriter(io.Discard)
	bad := Record{Query: "q", Time: t0} // empty machine ID
	if err := w.Write(bad); err == nil {
		t.Fatal("expected error for bad record")
	}
	if err := w.Write(sample()); err == nil {
		t.Fatal("writer did not stick its error")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(machine, q, url string, nclicks uint8, offset uint32) bool {
		clean := func(s string) string {
			s = strings.NewReplacer("\t", " ", "\n", " ", "\r", " ").Replace(s)
			return s
		}
		machine = clean(machine)
		if machine == "" {
			machine = "m"
		}
		r := Record{MachineID: machine, Query: clean(q), Time: t0.Add(time.Duration(offset) * time.Second)}
		for i := 0; i < int(nclicks%4); i++ {
			r.Clicks = append(r.Clicks, Click{URL: clean(url), Time: r.Time.Add(time.Duration(i) * time.Second)})
		}
		line, err := marshal(r)
		if err != nil {
			return false
		}
		got, err := Unmarshal(line)
		if err != nil {
			return false
		}
		if got.MachineID != r.MachineID || got.Query != r.Query || !got.Time.Equal(r.Time) || len(got.Clicks) != len(r.Clicks) {
			return false
		}
		for i := range r.Clicks {
			if got.Clicks[i].URL != r.Clicks[i].URL || !got.Clicks[i].Time.Equal(r.Clicks[i].Time) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
