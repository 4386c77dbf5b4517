package logfmt

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"
)

// oracleMarshal is the string-building encoder AppendRecord replaced, kept
// verbatim as the differential oracle for its bytes and errors:
//
//	machineID \t query \t timestamp \t nClicks [\t clickTime \t clickURL]...
func oracleMarshal(r Record) (string, error) {
	if r.MachineID == "" {
		return "", fmt.Errorf("%w: empty machine ID", ErrMalformed)
	}
	if strings.ContainsAny(r.MachineID, "\t\n") || strings.ContainsAny(r.Query, "\t\n") {
		return "", fmt.Errorf("%w: field contains tab or newline", ErrMalformed)
	}
	var b strings.Builder
	b.WriteString(r.MachineID)
	b.WriteByte('\t')
	b.WriteString(r.Query)
	b.WriteByte('\t')
	b.WriteString(r.Time.Format(timeLayout))
	b.WriteByte('\t')
	b.WriteString(strconv.Itoa(len(r.Clicks)))
	for _, c := range r.Clicks {
		if strings.ContainsAny(c.URL, "\t\n") {
			return "", fmt.Errorf("%w: click URL contains tab or newline", ErrMalformed)
		}
		b.WriteByte('\t')
		b.WriteString(c.Time.Format(timeLayout))
		b.WriteByte('\t')
		b.WriteString(c.URL)
	}
	return b.String(), nil
}

// oracleUnmarshal is the strings.Split parser Unmarshal replaced, kept
// verbatim as the differential oracle for its records and error texts.
func oracleUnmarshal(line string) (Record, error) {
	fields := strings.Split(line, "\t")
	if len(fields) < 4 {
		return Record{}, fmt.Errorf("%w: %d fields, need at least 4", ErrMalformed, len(fields))
	}
	ts, err := time.Parse(timeLayout, fields[2])
	if err != nil {
		return Record{}, fmt.Errorf("%w: bad timestamp %q: %v", ErrMalformed, fields[2], err)
	}
	n, err := strconv.Atoi(fields[3])
	if err != nil || n < 0 {
		return Record{}, fmt.Errorf("%w: bad click count %q", ErrMalformed, fields[3])
	}
	if len(fields) != 4+2*n {
		return Record{}, fmt.Errorf("%w: click count %d but %d trailing fields", ErrMalformed, n, len(fields)-4)
	}
	r := Record{MachineID: fields[0], Query: fields[1], Time: ts}
	if n > 0 {
		r.Clicks = make([]Click, n)
		for i := 0; i < n; i++ {
			ct, err := time.Parse(timeLayout, fields[4+2*i])
			if err != nil {
				return Record{}, fmt.Errorf("%w: bad click timestamp %q: %v", ErrMalformed, fields[4+2*i], err)
			}
			r.Clicks[i] = Click{Time: ct, URL: fields[5+2*i]}
		}
	}
	return r, nil
}

// sameRecord reports whether two parsed records are identical: fields,
// instants and zones, and nil-ness of Clicks.
func sameRecord(a, b Record) bool {
	sameTime := func(x, y time.Time) bool { return x.Equal(y) && x.String() == y.String() }
	if a.MachineID != b.MachineID || a.Query != b.Query || !sameTime(a.Time, b.Time) ||
		len(a.Clicks) != len(b.Clicks) || (a.Clicks == nil) != (b.Clicks == nil) {
		return false
	}
	for i := range a.Clicks {
		if a.Clicks[i].URL != b.Clicks[i].URL || !sameTime(a.Clicks[i].Time, b.Clicks[i].Time) {
			return false
		}
	}
	return true
}

// checkUnmarshal fails unless Unmarshal and its oracle agree on line: the
// same record, or the same error text.
func checkUnmarshal(t *testing.T, line string) {
	t.Helper()
	got, err := Unmarshal(line)
	want, werr := oracleUnmarshal(line)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("Unmarshal(%q) error = %v, oracle %v", line, err, werr)
	}
	if err == nil && !sameRecord(got, want) {
		t.Fatalf("Unmarshal(%q) = %+v, oracle %+v", line, got, want)
	}
}

// FuzzCodecDifferential holds the codec to the string-building one it
// replaced: AppendRecord writes oracleMarshal's bytes (after any prefix
// already in dst) or fails with its error text and dst unextended, and
// Unmarshal returns oracleUnmarshal's record or error text on the encoded
// line, on the raw fuzzed line and on a line with one field cut.
func FuzzCodecDifferential(f *testing.F) {
	f.Add("machine-1", "free mp3 download", int64(1_200_000_000), int32(0), int32(0), uint8(2), "example.com/a", "m\tq\t2026-01-15T00:08:41Z\t0")
	f.Add("m", "", int64(0), int32(999), int32(-5*3600), uint8(0), "", "a\tb\tc")
	f.Add("x\ty", "tabbed", int64(1_700_000_000), int32(1), int32(3600), uint8(1), "u\nrl", "m\tq\tnot-a-time\t-1")
	f.Add("m", "q", int64(-1<<40), int32(0), int32(60), uint8(3), "u", "m\tq\t2026-01-15T00:08:41+05:30\t1\t2026-01-15T00:08:41Z\tu")
	f.Add("m", "q", int64(1_700_000_000), int32(5), int32(-7200), uint8(12), "u", "m\tq\t2026-01-15T00:08:41+05:30\t1\t2026-01-15T01:08:41-02:00\tu")
	f.Add("m", "q", int64(1_700_000_000), int32(0), int32(0), uint8(2), "bad\turl", "")
	f.Fuzz(func(t *testing.T, machine, q string, sec int64, nsec, zone int32, nclicks uint8, url, line string) {
		ts := time.Unix(sec, int64(nsec)).In(time.FixedZone("", int(zone%(24*3600))))
		r := Record{MachineID: machine, Query: q, Time: ts}
		for i := 0; i < int(nclicks%13); i++ {
			r.Clicks = append(r.Clicks, Click{URL: url, Time: ts.Add(time.Duration(i) * time.Second)})
		}
		prefix := []byte("prefix")
		got, err := AppendRecord(prefix, r)
		want, werr := oracleMarshal(r)
		if fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("AppendRecord error = %v, oracle %v", err, werr)
		}
		if err != nil && string(got) != "prefix" {
			t.Fatalf("AppendRecord extended dst on error: %q", got)
		}
		if err == nil {
			if string(got) != "prefix"+want {
				t.Fatalf("AppendRecord = %q, oracle %q", got, "prefix"+want)
			}
			checkUnmarshal(t, want)
			if i := strings.LastIndexByte(want, '\t'); i >= 0 {
				checkUnmarshal(t, want[:i])
			}
		}
		checkUnmarshal(t, line)
	})
}

// TestCodecDifferentialClickCounts drives the click-count checks the fuzzer
// reaches rarely: signs, overflow and counts that disagree with the fields.
func TestCodecDifferentialClickCounts(t *testing.T) {
	const ts = "2026-01-15T00:08:41Z"
	for _, n := range []string{"0", "1", "2", "-1", "+1", "01", " 1", "x", "9223372036854775807", "9223372036854775808", strconv.Itoa(1 << 62)} {
		for extra := 0; extra <= 5; extra++ {
			line := "m\tq\t" + ts + "\t" + n + strings.Repeat("\t"+ts, extra)
			checkUnmarshal(t, line)
			checkUnmarshal(t, line+"\turl")
		}
	}
}
