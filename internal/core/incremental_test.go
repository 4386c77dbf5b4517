package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/query"
)

func incCfg() Config {
	cfg := DefaultConfig()
	cfg.ReductionThreshold = 0 // small streams: keep everything with count > 0
	return cfg
}

var incSessions = [][]string{
	{"free mp3", "free music", "napster"},
	{"free mp3", "free music", "napster"},
	{"maps", "driving directions"},
	{"free mp3", "free music"},
	{"weather", "weather radar", "storm"},
	{"maps", "driving directions"},
}

func TestIncrementalMatchesBatchTraining(t *testing.T) {
	inc := NewIncremental(nil, incCfg())
	for _, s := range incSessions {
		inc.AddStrings([][]string{s})
	}

	// Batch reference: same sessions interned in the same order.
	dict := query.NewDict()
	var seqs []query.Seq
	for _, s := range incSessions {
		seq := make(query.Seq, len(s))
		for i, q := range s {
			seq[i] = dict.Intern(q)
		}
		seqs = append(seqs, seq)
	}
	want, err := TrainFromSessions(dict, seqs, incCfg())
	if err != nil {
		t.Fatal(err)
	}
	got, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if got.Dict().Hash() != want.Dict().Hash() {
		t.Fatalf("dict hash mismatch: %x vs %x", got.Dict().Hash(), want.Dict().Hash())
	}
	ctx := query.Seq{mustLookup(t, got.Dict(), "free mp3")}
	gs := got.AppendSuggestions(nil, ctx, 5)
	ws := want.AppendSuggestions(nil, ctx, 5)
	if len(gs) == 0 || len(gs) != len(ws) {
		t.Fatalf("suggestion count mismatch: %d vs %d", len(gs), len(ws))
	}
	for i := range gs {
		if gs[i] != ws[i] {
			t.Fatalf("suggestion %d mismatch: %+v vs %+v", i, gs[i], ws[i])
		}
	}
}

func mustLookup(t *testing.T, d *query.Dict, q string) query.ID {
	t.Helper()
	id, ok := d.Lookup(q)
	if !ok {
		t.Fatalf("query %q not in dict", q)
	}
	return id
}

func TestIncrementalSnapshotExtendsBase(t *testing.T) {
	base := []string{"free mp3", "free music", "napster"}
	baseDict := query.NewDict()
	for _, q := range base {
		baseDict.Intern(q)
	}

	inc := NewIncremental(base, incCfg())
	inc.AddStrings(incSessions)
	if got := inc.Sessions(); got != uint64(len(incSessions)) {
		t.Fatalf("Sessions = %d, want %d", got, len(incSessions))
	}

	first, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !first.Dict().Extends(baseDict) {
		t.Fatal("first snapshot dict does not extend the base vocabulary")
	}
	inc.AddStrings([][]string{{"brand new topic", "another new one"}})
	second, err := inc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !second.Dict().Extends(first.Dict()) {
		t.Fatal("second snapshot dict does not extend the first")
	}
	if second.Dict().Len() != first.Dict().Len()+2 {
		t.Fatalf("second snapshot vocab = %d, want %d", second.Dict().Len(), first.Dict().Len()+2)
	}
}

func TestIncrementalSnapshotToRoundTrips(t *testing.T) {
	inc := NewIncremental(nil, incCfg())
	inc.AddStrings(incSessions)
	path := filepath.Join(t.TempDir(), "inc.bin")
	eng, err := inc.SnapshotTo(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Dict().Hash() != eng.Dict().Hash() {
		t.Fatal("loaded snapshot dict differs from trained engine")
	}
	ctx := query.Seq{mustLookup(t, loaded.Dict(), "maps")}
	got := loaded.AppendSuggestions(nil, ctx, 3)
	if len(got) == 0 || got[0].Query != "driving directions" {
		t.Fatalf("loaded snapshot suggestions = %+v", got)
	}
}

func TestIncrementalDumpCountsDeterministic(t *testing.T) {
	a := NewIncremental(nil, incCfg())
	b := NewIncremental(nil, incCfg())
	for _, s := range incSessions {
		a.AddStrings([][]string{s})
	}
	// Same multiset added in a different batching must dump identically.
	b.AddStrings(incSessions)

	var da, db bytes.Buffer
	if err := a.DumpCounts(&da); err != nil {
		t.Fatal(err)
	}
	if err := b.DumpCounts(&db); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(da.Bytes(), db.Bytes()) {
		t.Fatalf("dumps differ:\n%s\nvs\n%s", da.String(), db.String())
	}
	if da.Len() == 0 {
		t.Fatal("empty dump")
	}
}
