package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// Harness-side tracing. Spans are recorded by the benchmark's own code
// around its calls into each layer — nothing inside the program is touched —
// kept in memory, and written out when the run ends.

// span is one timed call. Times are nanoseconds since the recorder started.
type span struct {
	Name   string `json:"name"`
	Req    int32  `json:"req"`    // request the call served: lap*requests + index
	ID     int32  `json:"id"`     // unique within the trace, > 0
	Parent int32  `json:"parent"` // ID of the enclosing span, 0 for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// keptLaps is how many traced laps keep their raw spans for the output
// file. Every traced lap feeds the totals; keeping all of them raw would be
// several hundred MB of JSON for numbers the totals already carry.
const keptLaps = 2

// recorder collects the spans of one traced lap at a time into storage
// sized up front, so recording allocates nothing.
type recorder struct {
	t0     time.Time
	lap    []span // the lap being traced
	nextID int32
	kept   []span // raw spans of the first keptLaps laps
	laps   int
	// totals holds, per span name, what every traced lap spent under it.
	totals map[string]*spanTotals
	// clock is the cost of one reading of the clock, measured at start: a
	// span's recorded duration includes one, and each child adds two to its
	// parent's.
	clock float64
}

// spanTotals is one span name's record: per traced lap, the clock-corrected
// sum of its spans' durations and of their self times, and how many spans
// the last lap had (laps are identical, so every lap has as many).
type spanTotals struct {
	dur, self []float64
	count     int
}

func newRecorder(spansPerLap int) *recorder {
	r := &recorder{
		t0:     time.Now(),
		lap:    make([]span, 0, spansPerLap),
		totals: map[string]*spanTotals{},
	}
	r.clock = r.measureClock()
	return r
}

// measureClock times back-to-back clock readings and returns the fastest
// per-reading cost seen.
func (r *recorder) measureClock() float64 {
	best := 0.0
	for pass := 0; pass < 20; pass++ {
		const n = 1000
		start := r.now()
		var last int64
		for i := 0; i < n; i++ {
			last = r.now()
		}
		per := float64(last-start) / n
		if pass == 0 || per < best {
			best = per
		}
	}
	return best
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span and returns its index in the current lap.
func (r *recorder) begin(name string, req, parent int32) int32 {
	r.nextID++
	r.lap = append(r.lap, span{Name: name, Req: req, ID: r.nextID, Parent: parent, Start: r.now()})
	return int32(len(r.lap) - 1)
}

// end closes the span begin returned.
func (r *recorder) end(i int32) { r.lap[i].End = r.now() }

// id is the span ID to name as Parent for children of span i.
func (r *recorder) id(i int32) int32 { return r.lap[i].ID }

// endLap folds the finished lap into the totals and clears it, keeping the
// raw spans of the first few laps.
func (r *recorder) endLap() {
	childDur := map[int32]float64{} // by parent ID: Σ (child duration + one clock)
	for _, s := range r.lap {
		if s.Parent != 0 {
			childDur[s.Parent] += float64(s.End-s.Start) + r.clock
		}
	}
	type sums struct {
		dur, self float64
		count     int
	}
	lap := map[string]*sums{}
	for _, s := range r.lap {
		t := lap[s.Name]
		if t == nil {
			t = &sums{}
			lap[s.Name] = t
		}
		d := float64(s.End-s.Start) - r.clock
		t.dur += d
		t.self += d - childDur[s.ID]
		t.count++
	}
	for name, t := range lap {
		st := r.totals[name]
		if st == nil {
			st = &spanTotals{}
			r.totals[name] = st
		}
		st.dur = append(st.dur, t.dur)
		st.self = append(st.self, t.self)
		st.count = t.count
	}
	if r.laps < keptLaps {
		r.kept = append(r.kept, r.lap...)
	}
	r.laps++
	r.lap = r.lap[:0]
}

// dur, self and count read a span name's record. The times are one quiet
// lap's: of the per-lap sums, the one at the rank the throughput figure
// reads its lap from, for the same reason. A name no lap recorded reads 0.
func (r *recorder) dur(name string) float64 {
	if st := r.totals[name]; st != nil {
		return fastOf(sortedCopy(st.dur))
	}
	return 0
}

func (r *recorder) self(name string) float64 {
	if st := r.totals[name]; st != nil {
		return fastOf(sortedCopy(st.self))
	}
	return 0
}

func (r *recorder) count(name string) int {
	if st := r.totals[name]; st != nil {
		return st.count
	}
	return 0
}

// traceFile is the traced run's output: the raw spans of the kept laps and
// the layer budget computed from all of them.
type traceFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	TracedLaps int                `json:"traced_laps"`
	KeptLaps   int                `json:"kept_laps"`
	Requests   int                `json:"requests_per_lap"`
	ClockNanos float64            `json:"clock_ns"`
	Budget     map[string]float64 `json:"budget_ns_per_request"`
	Spans      []span             `json:"spans"`
}

func (r *recorder) write(path string, tf traceFile) error {
	tf.TracedLaps = r.laps
	tf.KeptLaps = min(r.laps, keptLaps)
	tf.ClockNanos = r.clock
	tf.Spans = r.kept
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(tf); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkNesting verifies the structural promises of a span list: IDs unique,
// every span ends no earlier than it starts, every child lies inside its
// parent and shares its request, and siblings under one parent do not
// overlap (the caller is single-threaded). It returns the first violation.
func checkNesting(spans []span) string {
	byID := make(map[int32]span, len(spans))
	for _, s := range spans {
		if s.ID <= 0 {
			return "span without an ID: " + s.Name
		}
		if _, dup := byID[s.ID]; dup {
			return "duplicate span ID in " + s.Name
		}
		if s.End < s.Start {
			return "span ends before it starts: " + s.Name
		}
		byID[s.ID] = s
	}
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return "span with unknown parent: " + s.Name
		}
		if s.Req != p.Req {
			return "child serves another request than its parent: " + s.Name
		}
		if s.Start < p.Start || s.End > p.End {
			return "child outside its parent: " + s.Name + " in " + p.Name
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, sibs := range children {
		sort.Slice(sibs, func(i, j int) bool { return sibs[i].Start < sibs[j].Start })
		for i := 1; i < len(sibs); i++ {
			if sibs[i].Start < sibs[i-1].End {
				return "siblings overlap: " + sibs[i-1].Name + " and " + sibs[i].Name
			}
		}
	}
	return ""
}
