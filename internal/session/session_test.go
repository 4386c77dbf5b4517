package session

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/logfmt"
	"repro/internal/query"
)

var base = time.Date(2026, 2, 1, 9, 0, 0, 0, time.UTC)

func rec(machine, q string, at time.Time, clicks ...logfmt.Click) logfmt.Record {
	return logfmt.Record{MachineID: machine, Query: q, Time: at, Clicks: clicks}
}

func TestSegmenterSplitsOn30MinuteGap(t *testing.T) {
	d := query.NewDict()
	seg := NewSegmenter(d, 0)
	seg.Add(rec("m1", "a", base))
	seg.Add(rec("m1", "b", base.Add(5*time.Minute)))
	seg.Add(rec("m1", "c", base.Add(5*time.Minute+31*time.Minute))) // > 30 min later
	got := seg.Flush()
	if len(got) != 2 {
		t.Fatalf("sessions = %d, want 2", len(got))
	}
	if got[0].Len() != 2 || got[1].Len() != 1 {
		t.Fatalf("session lengths %d,%d want 2,1", got[0].Len(), got[1].Len())
	}
}

func TestSegmenterExactly30MinutesDoesNotSplit(t *testing.T) {
	d := query.NewDict()
	seg := NewSegmenter(d, 0)
	seg.Add(rec("m1", "a", base))
	seg.Add(rec("m1", "b", base.Add(30*time.Minute))) // rule is "more than 30 min"
	got := seg.Flush()
	if len(got) != 1 || got[0].Len() != 2 {
		t.Fatalf("got %d sessions, first len %d; want one session of 2", len(got), got[0].Len())
	}
}

func TestSegmenterClickExtendsSession(t *testing.T) {
	d := query.NewDict()
	seg := NewSegmenter(d, 0)
	// Query at t0, click at t0+20min, next query at t0+45min: the gap since
	// last *activity* is 25 min, so the session continues (the paper cuts
	// "between an issued query and URL click").
	seg.Add(rec("m1", "a", base, logfmt.Click{URL: "u", Time: base.Add(20 * time.Minute)}))
	seg.Add(rec("m1", "b", base.Add(45*time.Minute)))
	got := seg.Flush()
	if len(got) != 1 || got[0].Len() != 2 {
		t.Fatalf("click did not extend session: %d sessions", len(got))
	}
}

func TestSegmenterMachinesAreIndependent(t *testing.T) {
	d := query.NewDict()
	seg := NewSegmenter(d, 0)
	seg.Add(rec("m1", "a", base))
	seg.Add(rec("m2", "x", base.Add(time.Minute)))
	seg.Add(rec("m1", "b", base.Add(2*time.Minute)))
	seg.Add(rec("m2", "y", base.Add(3*time.Minute)))
	got := seg.Flush()
	if len(got) != 2 {
		t.Fatalf("sessions = %d, want 2", len(got))
	}
	for _, s := range got {
		if s.Len() != 2 {
			t.Fatalf("interleaved machines corrupted sessions: %v", got)
		}
	}
}

func TestSegmenterFlushResets(t *testing.T) {
	d := query.NewDict()
	seg := NewSegmenter(d, 0)
	seg.Add(rec("m1", "a", base))
	if n := len(seg.Flush()); n != 1 {
		t.Fatalf("first flush = %d sessions", n)
	}
	if n := len(seg.Flush()); n != 0 {
		t.Fatalf("second flush = %d sessions, want 0", n)
	}
}

func TestSegmentReader(t *testing.T) {
	var sb strings.Builder
	w := logfmt.NewWriter(&sb)
	for i, q := range []string{"sign language", "learn sign language"} {
		if err := w.Write(rec("m9", q, base.Add(time.Duration(i)*time.Minute))); err != nil {
			t.Fatal(err)
		}
	}
	w.Flush()
	d := query.NewDict()
	got, err := SegmentReader(logfmt.NewReader(strings.NewReader(sb.String())), d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Len() != 2 {
		t.Fatalf("got %v", got)
	}
	if got[0].Format(d) != "sign language => learn sign language" {
		t.Fatalf("session = %q", got[0].Format(d))
	}
}

func TestAggregateMergesIdenticalSessions(t *testing.T) {
	ss := []query.Seq{{1, 2}, {1, 2}, {3}, {1, 2, 3}}
	agg := Aggregate(ss)
	if len(agg) != 3 {
		t.Fatalf("aggregated = %d, want 3", len(agg))
	}
	if !agg[0].Queries.Equal(query.Seq{1, 2}) || agg[0].Count != 2 {
		t.Fatalf("top aggregated session = %+v", agg[0])
	}
}

func TestReduceThreshold(t *testing.T) {
	agg := []query.Session{
		{Queries: query.Seq{1}, Count: 100},
		{Queries: query.Seq{2}, Count: 6},
		{Queries: query.Seq{3}, Count: 5}, // <= 5: dropped
		{Queries: query.Seq{4}, Count: 1}, // dropped
	}
	kept, mass := Reduce(agg, 5)
	if len(kept) != 2 {
		t.Fatalf("kept %d sessions, want 2", len(kept))
	}
	want := float64(106) / float64(112)
	if mass < want-1e-9 || mass > want+1e-9 {
		t.Fatalf("retained mass = %v, want %v", mass, want)
	}
}

func TestReduceEmpty(t *testing.T) {
	kept, mass := Reduce(nil, 5)
	if len(kept) != 0 || mass != 0 {
		t.Fatalf("Reduce(nil) = %v, %v", kept, mass)
	}
}

func TestCollectStats(t *testing.T) {
	agg := []query.Session{
		{Queries: query.Seq{1, 2}, Count: 10},
		{Queries: query.Seq{3}, Count: 5},
		{Queries: query.Seq{1, 2, 3}, Count: 2},
	}
	st := Collect(agg)
	if st.Sessions != 17 {
		t.Fatalf("Sessions = %d, want 17", st.Sessions)
	}
	if st.Searches != 10*2+5*1+2*3 {
		t.Fatalf("Searches = %d", st.Searches)
	}
	if st.UniqueQueries != 3 {
		t.Fatalf("UniqueQueries = %d, want 3", st.UniqueQueries)
	}
	lengths, counts := st.LengthBuckets()
	if len(lengths) != 3 || lengths[0] != 1 || counts[0] != 5 {
		t.Fatalf("buckets = %v %v", lengths, counts)
	}
	wantMean := float64(st.Searches) / 17
	if st.MeanLength() != wantMean {
		t.Fatalf("MeanLength = %v, want %v", st.MeanLength(), wantMean)
	}
}

func TestCollectEmpty(t *testing.T) {
	st := Collect(nil)
	if st.MeanLength() != 0 {
		t.Fatalf("MeanLength on empty = %v", st.MeanLength())
	}
}

func TestPowerLawFitOnExactPowerLaw(t *testing.T) {
	// freq(rank) = 1000 * rank^-1: slope should be ~ -1, R² ~ 1.
	freqs := make([]uint64, 100)
	for i := range freqs {
		freqs[i] = uint64(1000 / (i + 1))
	}
	slope, r2 := PowerLawFit(freqs)
	if slope > -0.9 || slope < -1.1 {
		t.Fatalf("slope = %v, want ~-1", slope)
	}
	if r2 < 0.98 {
		t.Fatalf("R² = %v, want ~1", r2)
	}
}

func TestPowerLawFitDegenerate(t *testing.T) {
	if s, r := PowerLawFit(nil); s != 0 || r != 0 {
		t.Fatalf("empty fit = %v,%v", s, r)
	}
	if s, r := PowerLawFit([]uint64{7}); s != 0 || r != 0 {
		t.Fatalf("single-point fit = %v,%v", s, r)
	}
}

func TestRankFrequencySorted(t *testing.T) {
	agg := []query.Session{
		{Queries: query.Seq{1}, Count: 3},
		{Queries: query.Seq{2}, Count: 9},
		{Queries: query.Seq{3}, Count: 5},
	}
	rf := RankFrequency(agg)
	if rf[0] != 9 || rf[1] != 5 || rf[2] != 3 {
		t.Fatalf("RankFrequency = %v", rf)
	}
}

func TestAggregateConservesMass(t *testing.T) {
	f := func(raw [][3]uint8) bool {
		if len(raw) > 50 {
			raw = raw[:50]
		}
		var sessions []query.Seq
		for _, r := range raw {
			l := int(r[0])%3 + 1
			s := make(query.Seq, l)
			for i := 0; i < l; i++ {
				s[i] = query.ID(r[i] % 6)
			}
			sessions = append(sessions, s)
		}
		agg := Aggregate(sessions)
		var mass uint64
		for _, a := range agg {
			mass += a.Count
		}
		return int(mass) == len(sessions)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestReduceNeverIncreasesSessions(t *testing.T) {
	f := func(counts []uint8, th uint8) bool {
		var agg []query.Session
		for i, c := range counts {
			if i > 40 {
				break
			}
			agg = append(agg, query.Session{Queries: query.Seq{query.ID(i)}, Count: uint64(c) + 1})
		}
		kept, mass := Reduce(agg, uint64(th))
		if len(kept) > len(agg) || mass < 0 || mass > 1 {
			return false
		}
		for _, s := range kept {
			if s.Count <= uint64(th) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
