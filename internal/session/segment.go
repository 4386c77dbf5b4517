// Package session implements the paper's data-preparation pipeline
// (Sec. V.A): segmentation of raw logs into sessions by the 30-minute rule,
// aggregation of identical sessions across users, frequency-threshold data
// reduction, derivation of training contexts, ground-truth construction for
// the test window, and the summary statistics behind Table IV and
// Figs. 5–7.
package session

import (
	"io"
	"sort"
	"strings"
	"time"

	"repro/internal/logfmt"
	"repro/internal/query"
)

// DefaultGap is the session-segmentation threshold: the paper adopts the
// 30-minute rule convention (White et al.; Jansen et al.).
const DefaultGap = 30 * time.Minute

// Segmenter groups a stream of raw log records into sessions. Records are
// keyed by machine ID; a new session starts whenever more than Gap elapses
// between the last activity (query or URL click) and the next query from the
// same machine.
type Segmenter struct {
	Gap  time.Duration
	Dict *query.Dict

	open map[string]*openSession
	done []query.Seq
}

type openSession struct {
	queries query.Seq
	last    time.Time // last activity: query submission or click
}

// NewSegmenter returns a Segmenter interning queries into dict. A zero Gap
// defaults to the 30-minute rule.
func NewSegmenter(dict *query.Dict, gap time.Duration) *Segmenter {
	if gap <= 0 {
		gap = DefaultGap
	}
	return &Segmenter{Gap: gap, Dict: dict, open: make(map[string]*openSession)}
}

// Add feeds one record. Records for a given machine must arrive in
// chronological order (the natural order of a log); different machines may
// interleave arbitrarily.
func (s *Segmenter) Add(rec logfmt.Record) {
	id := s.Dict.Intern(rec.Query)
	cur := s.open[rec.MachineID]
	switch {
	case cur == nil:
		// Cloned: rec.MachineID may be a substring of a whole log line,
		// which the map key would otherwise keep alive.
		cur = &openSession{}
		s.open[strings.Clone(rec.MachineID)] = cur
	case rec.Time.Sub(cur.last) > s.Gap:
		// The machine's record carries over to its next session.
		s.done = append(s.done, cur.queries)
		cur.queries = nil
	}
	cur.queries = append(cur.queries, id)
	cur.last = rec.Time
	for _, c := range rec.Clicks {
		if c.Time.After(cur.last) {
			cur.last = c.Time
		}
	}
}

// Flush closes all open sessions and returns every completed session in a
// deterministic order. The Segmenter can be reused afterwards.
func (s *Segmenter) Flush() []query.Seq {
	keys := make([]string, 0, len(s.open))
	for m := range s.open {
		keys = append(keys, m)
	}
	sort.Strings(keys)
	for _, m := range keys {
		s.done = append(s.done, s.open[m].queries)
	}
	out := s.done
	s.done = nil
	s.open = make(map[string]*openSession)
	return out
}

// TakeCompleted drains only the sessions that have been closed by a gap so
// far, leaving in-flight sessions open. It is the streaming counterpart of
// Flush: a tailer calls it after each batch of records to harvest finished
// sessions without cutting sessions that may still receive queries.
func (s *Segmenter) TakeCompleted() []query.Seq {
	out := s.done
	s.done = nil
	return out
}

// Expire closes every open session whose last activity is more than Gap
// before now, moving it to the completed set in deterministic (machine-key
// sorted) order. now is event time — typically the timestamp of the latest
// record observed — not wall clock, so replaying a log yields the same
// session boundaries as tailing it live.
func (s *Segmenter) Expire(now time.Time) {
	var keys []string
	for m, cur := range s.open {
		if now.Sub(cur.last) > s.Gap {
			keys = append(keys, m)
		}
	}
	sort.Strings(keys)
	for _, m := range keys {
		s.done = append(s.done, s.open[m].queries)
		delete(s.open, m)
	}
}

// OpenSessionState is the exported state of one in-flight session: the
// machine it belongs to, its last-activity time, and its queries as strings
// (ID-independent, so the state survives into a process with a different
// dictionary). Used by the ingestion write-log to checkpoint sessions that
// span a crash.
type OpenSessionState struct {
	Machine string    `json:"machine"`
	Last    time.Time `json:"last"`
	Queries []string  `json:"queries"`
}

// OpenState exports every in-flight session, sorted by machine key.
func (s *Segmenter) OpenState() []OpenSessionState {
	keys := make([]string, 0, len(s.open))
	for m := range s.open {
		keys = append(keys, m)
	}
	sort.Strings(keys)
	out := make([]OpenSessionState, 0, len(keys))
	for _, m := range keys {
		cur := s.open[m]
		qs := make([]string, len(cur.queries))
		for i, id := range cur.queries {
			qs[i] = s.Dict.String(id)
		}
		out = append(out, OpenSessionState{Machine: m, Last: cur.last, Queries: qs})
	}
	return out
}

// RestoreOpen reinstates sessions previously exported by OpenState,
// interning their queries in the given slice order (callers that need
// dictionary determinism must pass states in the same order they were
// exported). Existing open sessions for the same machines are replaced.
func (s *Segmenter) RestoreOpen(states []OpenSessionState) {
	for _, st := range states {
		cur := &openSession{last: st.Last, queries: make(query.Seq, len(st.Queries))}
		for i, q := range st.Queries {
			cur.queries[i] = s.Dict.Intern(q)
		}
		s.open[st.Machine] = cur
	}
}

// OpenCount reports the number of in-flight sessions.
func (s *Segmenter) OpenCount() int { return len(s.open) }

// SegmentReader drains a record stream into segmented sessions.
func SegmentReader(r *logfmt.Reader, dict *query.Dict, gap time.Duration) ([]query.Seq, error) {
	seg := NewSegmenter(dict, gap)
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		seg.Add(rec)
	}
	return seg.Flush(), nil
}
