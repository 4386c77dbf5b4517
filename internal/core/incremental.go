// Incremental training: the in-memory count store behind the streaming
// ingestion loop (internal/stream). An Incremental accumulates completed
// sessions as (sequence, frequency) counts over a dictionary that only ever
// grows from a fixed base vocabulary, and can at any point be snapshotted
// into a fully trained, compiled Engine whose dictionary ID-preservingly
// extends the base — the property the fleet's dict-compatibility check
// requires for a challenger to be hot-loaded next to the champion.
package core

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"

	"repro/internal/query"
	"repro/internal/session"
)

// Incremental accumulates session counts for repeated background retraining.
//
// Sessions are added as query strings, not IDs, and interned in arrival
// order: two Incrementals fed the same session stream in the same order build
// byte-identical dictionaries and counts, which is what makes crash replay
// (re-applying a write-log) reproduce the exact pre-crash state.
//
// All methods are safe for concurrent use; Snapshot trains outside the lock
// so ingestion continues while a recompile runs in the background.
type Incremental struct {
	mu       sync.Mutex
	dict     *query.Dict
	counts   map[string]uint64 // Seq.Key() -> aggregated frequency
	cfg      Config
	sessions uint64 // total sessions ever added
}

// NewIncremental returns an Incremental whose dictionary starts as baseVocab
// interned in slice order — pass the champion model's Dict().Strings() so
// every snapshot's dictionary extends the champion's.
func NewIncremental(baseVocab []string, cfg Config) *Incremental {
	inc := &Incremental{dict: query.NewDict(), counts: make(map[string]uint64), cfg: cfg}
	for _, q := range baseVocab {
		inc.dict.Intern(q)
	}
	return inc
}

// AddStrings applies one batch of completed sessions, interning queries in
// the given order. Empty sessions are ignored.
func (inc *Incremental) AddStrings(sessions [][]string) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	for _, qs := range sessions {
		if len(qs) == 0 {
			continue
		}
		seq := make(query.Seq, len(qs))
		for i, q := range qs {
			seq[i] = inc.dict.Intern(q)
		}
		inc.counts[seq.Key()]++
		inc.sessions++
	}
}

// Sessions reports the total number of sessions added since creation.
func (inc *Incremental) Sessions() uint64 {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.sessions
}

// VocabSize reports the current dictionary size.
func (inc *Incremental) VocabSize() int {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	return inc.dict.Len()
}

// clone captures an isolated (dict, aggregated-sessions) pair under the lock.
func (inc *Incremental) clone() (*query.Dict, []query.Session) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	dict := query.NewDict()
	for _, q := range inc.dict.Strings() {
		dict.Intern(q) // stored strings are already normalised: IDs preserved
	}
	agg := make([]query.Session, 0, len(inc.counts))
	for k, c := range inc.counts {
		agg = append(agg, query.Session{Queries: query.SeqFromKey(k), Count: c})
	}
	query.SortSessions(agg)
	return dict, agg
}

// Snapshot trains a fresh Engine from the current counts. The returned
// engine owns a cloned dictionary, so ingestion may continue concurrently;
// the clone ID-preservingly extends both the base vocabulary and every
// earlier snapshot's dictionary. Reduction follows cfg.ReductionThreshold
// exactly as offline training does.
func (inc *Incremental) Snapshot() *Engine {
	dict, agg := inc.clone()
	if inc.cfg.ReductionThreshold >= 0 {
		agg, _ = session.Reduce(agg, uint64(inc.cfg.ReductionThreshold))
	}
	return TrainFromAggregated(dict, agg, inc.cfg)
}

// SnapshotTo trains a snapshot and atomically persists it at path (tmp file
// + rename, so a reader never observes a torn model file).
func (inc *Incremental) SnapshotTo(path string) (*Engine, error) {
	eng := inc.Snapshot()
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	if err := eng.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return nil, fmt.Errorf("core: snapshot save: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("core: snapshot close: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("core: snapshot rename: %w", err)
	}
	return eng, nil
}

// DumpCounts writes the count table in a canonical text form — one line per
// aggregated session, quoted queries tab-joined, then the frequency — sorted
// bytewise. Two stores with identical state produce byte-identical dumps;
// the crash-replay tests diff these to prove no session was lost or
// double-counted.
func (inc *Incremental) DumpCounts(w io.Writer) error {
	dict, agg := inc.clone()
	lines := make([]string, 0, len(agg))
	for _, s := range agg {
		var b []byte
		for i, id := range s.Queries {
			if i > 0 {
				b = append(b, '\t')
			}
			b = strconv.AppendQuote(b, dict.String(id))
		}
		b = append(b, '\t', '#')
		b = strconv.AppendUint(b, s.Count, 10)
		lines = append(lines, string(b))
	}
	sort.Strings(lines)
	bw := bufio.NewWriter(w)
	for _, l := range lines {
		bw.WriteString(l)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
