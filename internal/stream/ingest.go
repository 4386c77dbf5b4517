package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/logfmt"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/session"
)

// Config configures an Ingester.
type Config struct {
	// LogPath is the growing source query log (logfmt records) to tail.
	LogPath string
	// WALPath is the durable write-log; created if absent, replayed if
	// present.
	WALPath string
	// ModelPath is where recompiled snapshots are atomically saved.
	ModelPath string
	// BaseVocab seeds the trainer dictionary — pass the champion model's
	// Dict().Strings() so every snapshot's dictionary extends the champion's
	// (the fleet's reload-compatibility requirement). May be nil.
	BaseVocab []string
	// Train configures snapshot training. Train.SessionGap doubles as the
	// segmentation gap; leave it 0 for the paper's 30-minute rule
	// (session.DefaultGap), which the champion model was segmented by.
	Train core.Config
	// RecompileSessions triggers a background recompile once this many new
	// sessions accumulated since the last one; 0 selects
	// DefaultRecompileSessions.
	RecompileSessions uint64
	// Push, when set, is invoked after each committed recompile with the
	// snapshot path — cmd/serve reloads its -ingest-arm slot here, in
	// process when the loop is embedded in a fleet, by POST
	// /v1/reload?model=<arm> at -ingest-push under -role ingest.
	// A push failure is recorded and retried after the next recompile; it
	// does not stop ingestion.
	Push func(modelPath string) error
	// Obs receives the loop's histograms (ingest_segment_us,
	// ingest_recompile_us) and progress counters for Prometheus exposition;
	// nil builds a registry of the loop's own.
	Obs *obs.Registry
	// Tracer retains one forced trace per productive Step — read /
	// wal-append / fold / recompile / push spans — so slow ingest steps are
	// inspectable the same way slow requests are. Idle steps (no new
	// records) are not retained. nil builds a 128-trace tracer
	// that tail-samples against ingest_segment_us.
	Tracer *obs.Tracer

	// segmentRecords caps the records folded into one write-log segment
	// entry; 0 selects defaultSegmentRecords. The package's tests shrink it
	// so that a small log spans many segments.
	segmentRecords int
}

// DefaultRecompileSessions is Config.RecompileSessions' zero value and
// cmd/serve's -ingest-recompile default.
const DefaultRecompileSessions = 5000

// defaultSegmentRecords is Config.segmentRecords' zero value: a smaller cap
// bounds replay-loss (the tentative window), a larger one amortises the
// append.
const defaultSegmentRecords = 256

func (c Config) withDefaults() Config {
	if c.segmentRecords <= 0 {
		c.segmentRecords = defaultSegmentRecords
	}
	if c.RecompileSessions == 0 {
		c.RecompileSessions = DefaultRecompileSessions
	}
	if c.Train.SessionGap <= 0 {
		c.Train.SessionGap = session.DefaultGap
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	if c.Tracer == nil {
		c.Tracer = obs.NewTracer(128, c.Obs.Histogram("ingest_segment_us"))
	}
	return c
}

// Status is one observation of the ingestion loop, served by /v1/ingest.
type Status struct {
	LogOffset     int64  `json:"log_offset"`      // bytes of source log durably consumed
	Segments      uint64 `json:"segments"`        // write-log segment entries appended
	CommittedSeq  uint64 `json:"committed_seq"`   // highest segment covered by a recompile
	Sessions      uint64 `json:"sessions"`        // completed sessions counted
	OpenSessions  int    `json:"open_sessions"`   // in-flight sessions
	Vocab         int    `json:"vocab"`           // trainer dictionary size
	Recompiles    uint64 `json:"recompiles"`      // snapshots trained and saved
	Pushes        uint64 `json:"pushes"`          // successful fleet pushes
	PushErrors    uint64 `json:"push_errors"`     // failed fleet pushes
	Replayed      uint64 `json:"replayed"`        // segment entries replayed at startup
	TornTailBytes int64  `json:"torn_tail_bytes"` // write-log bytes discarded at startup
	LastModelPath string `json:"last_model_path,omitempty"`
	LastError     string `json:"last_error,omitempty"`
}

// Ingester is the streaming ingestion loop: tail the source log, segment into
// sessions, write-ahead-log every step, fold counts into a core.Incremental,
// recompile and push on a session-count trigger.
//
// The loop is single-threaded by design — Step performs one bounded unit of
// work and Run drives it from one goroutine — but Status may be read from any
// goroutine (the /v1/ingest endpoint).
//
// Determinism contract (what makes crash recovery exact): the segmenter
// interns into a private scratch dictionary that is never used for training;
// completed sessions cross into the trainer as strings, in completion order,
// only after their segment entry is durably appended. Replaying the write-log
// therefore reproduces the trainer's dictionary and counts byte-for-byte, and
// the source log is re-read only past the last recorded offset — no session
// is double-counted or lost.
type Ingester struct {
	cfg Config
	wal *WAL
	inc *core.Incremental

	src     *os.File
	rd      *logfmt.Reader
	seg     *session.Segmenter
	segDict *query.Dict // segmenter scratch dict — never trains
	latest  time.Time   // event time: latest record timestamp seen

	seq                  uint64 // last appended segment seq
	committed            uint64
	sessionsSinceCompile uint64
	baseOffset           int64 // source-log offset already consumed at startup

	// unlogged holds the completed sessions of a segment whose write-log
	// append failed: they are out of the segmenter and the reader is past
	// their records, so the next entry carries them, ahead of its own.
	unlogged [][]string

	tracer        *obs.Tracer
	tr            obs.Trace      // the recorder each Step's trace runs on
	histSegment   *obs.Histogram // productive Step durations
	histRecompile *obs.Histogram // recompile+commit durations

	mu     sync.Mutex // guards the Status snapshot fields below
	status Status
}

// NewIngester opens (replaying if present) the write-log, restores the
// in-flight session state, seeks the source log to the resume offset and
// returns a loop ready to Step. The source log file must exist (create it
// empty first when generating traffic into it).
func NewIngester(cfg Config) (*Ingester, error) {
	cfg = cfg.withDefaults()

	baseDict := query.NewDict()
	for _, q := range cfg.BaseVocab {
		baseDict.Intern(q)
	}
	wal, st, err := OpenWAL(cfg.WALPath, WALHeader{
		BaseDictHash: baseDict.Hash(),
		GapNanos:     int64(cfg.Train.SessionGap),
	})
	if err != nil {
		return nil, err
	}

	ing := &Ingester{
		cfg:       cfg,
		wal:       wal,
		inc:       core.NewIncremental(cfg.BaseVocab, cfg.Train),
		segDict:   query.NewDict(),
		seq:       st.LastSeq,
		committed: st.CommittedSeq,
	}
	ing.seg = session.NewSegmenter(ing.segDict, cfg.Train.SessionGap)

	// Replay: re-apply every segment entry's completed sessions in append
	// order (reproducing the exact trainer dictionary), restore the open
	// sessions of the latest entry, and remember how much source log is
	// already consumed.
	var replayed uint64
	for _, e := range st.Segments {
		ing.inc.AddStrings(e.Completed)
		replayed++
	}
	ing.seg.RestoreOpen(st.Open)
	ing.latest = st.Latest
	ing.baseOffset = st.LogOffset
	ing.sessionsSinceCompile = ing.inc.Sessions() - st.LastCommit.Sessions

	src, err := os.Open(cfg.LogPath)
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("stream: opening source log: %w", err)
	}
	if _, err := src.Seek(st.LogOffset, io.SeekStart); err != nil {
		src.Close()
		wal.Close()
		return nil, fmt.Errorf("stream: seeking source log to %d: %w", st.LogOffset, err)
	}
	ing.src = src
	ing.rd = logfmt.NewReader(src)

	ing.tracer = cfg.Tracer
	ing.histSegment = cfg.Obs.Histogram("ingest_segment_us")
	ing.histRecompile = cfg.Obs.Histogram("ingest_recompile_us")
	cfg.Obs.CounterFunc("ingest_segments_total", func() uint64 { return ing.Status().Segments })
	cfg.Obs.CounterFunc("ingest_sessions_total", func() uint64 { return ing.Status().Sessions })
	cfg.Obs.CounterFunc("ingest_recompiles_total", func() uint64 { return ing.Status().Recompiles })
	cfg.Obs.CounterFunc("ingest_pushes_total", func() uint64 { return ing.Status().Pushes })
	cfg.Obs.CounterFunc("ingest_push_errors_total", func() uint64 { return ing.Status().PushErrors })
	cfg.Obs.GaugeFunc("ingest_vocab", func() float64 { return float64(ing.Status().Vocab) })
	cfg.Obs.GaugeFunc("ingest_open_sessions", func() float64 { return float64(ing.Status().OpenSessions) })
	cfg.Obs.GaugeFunc("ingest_log_offset_bytes", func() float64 { return float64(ing.Status().LogOffset) })

	ing.mu.Lock()
	ing.status = Status{
		LogOffset:     st.LogOffset,
		Segments:      st.LastSeq,
		CommittedSeq:  st.CommittedSeq,
		Sessions:      ing.inc.Sessions(),
		OpenSessions:  ing.seg.OpenCount(),
		Vocab:         ing.inc.VocabSize(),
		Replayed:      replayed,
		TornTailBytes: st.Truncated,
		LastModelPath: st.LastCommit.ModelPath,
	}
	ing.mu.Unlock()
	return ing, nil
}

// Incremental exposes the trainer's count store (tests diff canonical count
// dumps through it).
func (ing *Ingester) Incremental() *core.Incremental { return ing.inc }

// Status returns a consistent snapshot of the loop's counters.
func (ing *Ingester) Status() Status {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	return ing.status
}

func (ing *Ingester) setError(err error) {
	ing.mu.Lock()
	ing.status.LastError = err.Error()
	ing.mu.Unlock()
}

// Step performs one bounded unit of work: read up to a segment's cap of records
// from the tail, close expired sessions, append one tentative segment entry
// and fold it into the counts, then recompile/commit/push if the session
// trigger fired. It returns progressed=false when the tail had no complete
// new records (sleep and retry). A torn final line in the source log is the
// retryable "writer mid-append" state, not an error; an oversized line is
// fatal (corrupt source log).
func (ing *Ingester) Step() (progressed bool, err error) {
	// A trace per productive step: the loop is single-threaded, so the trace
	// is mutated only here, satisfying the Trace goroutine contract. Idle
	// polls are not finished — retaining thousands of empty traces would
	// flush the interesting ones out of the ring.
	tr := &ing.tr
	ing.tracer.StartFrom(tr, nil)
	sp := tr.BeginAt("read", 0)
	read := 0
	for read < ing.cfg.segmentRecords {
		rec, rerr := ing.rd.Read()
		if rerr != nil {
			if rerr == io.EOF || errors.Is(rerr, logfmt.ErrTornLine) {
				break // caught up with the writer (possibly mid-line)
			}
			tr.End(sp, "error")
			return ing.finish(tr, false, fmt.Errorf("stream: source log: %w", rerr))
		}
		ing.seg.Add(rec)
		if rec.Time.After(ing.latest) {
			ing.latest = rec.Time
		}
		read++
	}
	if read == 0 {
		return false, nil
	}
	tr.End(sp, "ok")

	// Event-time expiry: sessions idle past the gap at the latest observed
	// timestamp are complete. Deterministic on replay, unlike wall clock.
	ing.seg.Expire(ing.latest)
	completed := ing.takeCompletedStrings()
	if ing.unlogged != nil {
		completed = append(ing.unlogged, completed...)
	}

	// Write-ahead: the segment entry is durable before the counts move.
	ing.seq++
	entry := SegmentEntry{
		Seq:       ing.seq,
		LogOffset: ing.baseOffset + ing.rd.Offset(),
		Latest:    ing.latest,
		Completed: completed,
		Open:      ing.seg.OpenState(),
	}
	sp = tr.Begin("wal-append")
	if err := ing.wal.AppendSegment(entry); err != nil {
		ing.seq--
		ing.unlogged = completed
		tr.End(sp, "error")
		return ing.finish(tr, false, err)
	}
	ing.unlogged = nil
	tr.End(sp, "ok")
	sp = tr.Begin("fold")
	ing.inc.AddStrings(completed)
	ing.sessionsSinceCompile += uint64(len(completed))
	tr.End(sp, "ok")

	ing.mu.Lock()
	ing.status.LogOffset = entry.LogOffset
	ing.status.Segments = ing.seq
	ing.status.Sessions = ing.inc.Sessions()
	ing.status.OpenSessions = ing.seg.OpenCount()
	ing.status.Vocab = ing.inc.VocabSize()
	ing.mu.Unlock()

	if ing.sessionsSinceCompile >= ing.cfg.RecompileSessions {
		err = ing.recompile(tr)
	}
	return ing.finish(tr, true, err)
}

// finish ends a step that read records: a productive one's duration goes to
// ingest_segment_us, err (if any) becomes Status.LastError, and the trace is
// retained, as an errored one when err is set.
func (ing *Ingester) finish(tr *obs.Trace, progressed bool, err error) (bool, error) {
	elapsed := tr.Elapsed()
	if progressed {
		ing.histSegment.Record(elapsed.Microseconds())
	}
	if err != nil {
		ing.setError(err)
	}
	tr.Force()
	ing.tracer.FinishElapsed(tr, elapsed, err != nil)
	return progressed, err
}

// takeCompletedStrings drains the segmenter's completed sessions, converting
// scratch-dictionary IDs back to strings (the trainer-facing, self-contained
// form the write-log records).
func (ing *Ingester) takeCompletedStrings() [][]string {
	done := ing.seg.TakeCompleted()
	if len(done) == 0 {
		return nil
	}
	out := make([][]string, len(done))
	for i, s := range done {
		qs := make([]string, len(s))
		for j, id := range s {
			qs[j] = ing.segDict.String(id)
		}
		out[i] = qs
	}
	return out
}

// recompile snapshots the counts into a saved model, appends the commit
// record (marking every appended segment committed) and pushes the snapshot
// at the fleet. Ordering matters for crash safety: model save, then commit
// append (fsynced), then push — a crash between any two replays into the same
// state or a benign re-push. tr, the enclosing Step's trace, receives the
// "recompile" and "push" spans.
func (ing *Ingester) recompile(tr *obs.Trace) error {
	start := tr.Elapsed()
	sp := tr.BeginAt("recompile", start)
	if _, err := ing.inc.SnapshotTo(ing.cfg.ModelPath); err != nil {
		tr.End(sp, "error")
		return err
	}
	commit := CommitEntry{Seq: ing.seq, ModelPath: ing.cfg.ModelPath, Sessions: ing.inc.Sessions()}
	if err := ing.wal.AppendCommit(commit); err != nil {
		tr.End(sp, "error")
		return err
	}
	ing.committed = ing.seq
	ing.sessionsSinceCompile = 0
	end := tr.Elapsed()
	tr.EndAt(sp, end, "ok")
	ing.histRecompile.Record((end - start).Microseconds())

	ing.mu.Lock()
	ing.status.CommittedSeq = ing.committed
	ing.status.Recompiles++
	ing.status.LastModelPath = ing.cfg.ModelPath
	ing.mu.Unlock()

	if ing.cfg.Push != nil {
		sp := tr.Begin("push")
		if err := ing.cfg.Push(ing.cfg.ModelPath); err != nil {
			tr.End(sp, "error")
			ing.mu.Lock()
			ing.status.PushErrors++
			ing.status.LastError = "push: " + err.Error()
			ing.mu.Unlock()
			return nil // push failures are retried after the next recompile
		}
		tr.End(sp, "ok")
		ing.mu.Lock()
		ing.status.Pushes++
		ing.mu.Unlock()
	}
	return nil
}

// Run drives Step until the context ends, sleeping poll between idle checks
// of the tail. Step errors other than source-log corruption are transient
// (disk full on the WAL, say) and retried after poll; corruption stops the
// loop.
func (ing *Ingester) Run(ctx context.Context, poll time.Duration) error {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		progressed, err := ing.Step()
		if err != nil && errors.Is(err, logfmt.ErrOversizedLine) {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if !progressed || err != nil {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(poll):
			}
		}
	}
}

// Close releases the write-log and source log files. The Ingester must not be
// stepped afterwards.
func (ing *Ingester) Close() error {
	err1 := ing.wal.Close()
	err2 := ing.src.Close()
	if err1 != nil {
		return err1
	}
	return err2
}
