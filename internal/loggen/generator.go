package loggen

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/logfmt"
)

// Pattern labels one of the seven session pattern types of the paper's
// Fig. 1 / Table I.
type Pattern uint8

// The seven session-pattern types.
const (
	PatSpelling Pattern = iota
	PatParallel
	PatGeneralization
	PatSpecialization
	PatSynonym
	PatRepeated
	PatOther
	numPatterns
)

// PatternNames gives the paper's display names in Pattern order.
var PatternNames = [...]string{
	"Spelling change",
	"Parallel movement",
	"Generalization",
	"Specialization",
	"Synonym substitution",
	"Repeated query",
	"Others",
}

func (p Pattern) String() string {
	if int(p) < len(PatternNames) {
		return PatternNames[p]
	}
	return fmt.Sprintf("Pattern(%d)", uint8(p))
}

// DefaultPatternMix is the generator's default pattern distribution. Fig. 1
// is only reported numerically via its order-sensitive total (spelling +
// generalization + specialization = 34.34%); the remaining shares are read
// off the figure approximately. See ARCHITECTURE.md §1.
var DefaultPatternMix = [numPatterns]float64{
	PatSpelling:       0.10,
	PatParallel:       0.16,
	PatGeneralization: 0.10,
	PatSpecialization: 0.1434,
	PatSynonym:        0.08,
	PatRepeated:       0.14,
	PatOther:          0.2766,
}

// Config controls session-stream generation on top of a Universe.
type Config struct {
	Universe   UniverseConfig
	Machines   int                  // distinct machine IDs (users)
	PatternMix [numPatterns]float64 // must sum to ~1
	// ZipfS and ZipfV shape query popularity: topics and roots are drawn
	// from Zipf(s, v) so aggregated session frequencies follow a power law
	// (Fig. 6). s must be > 1.
	ZipfS float64
	ZipfV float64
	// MeanGapSec is the mean think-time between queries within a session;
	// drawn exponentially, always < 30 min so sessions never self-split.
	MeanGapSec float64
	// ShortBreakProb is the chance two generated intent units of one machine
	// are separated by less than 30 minutes, fusing them into one observed
	// session (realistic segmentation noise).
	ShortBreakProb float64
	ClickProb      float64 // probability a query receives >= 1 click
	// NoiseProb injects a universal navigational query ("www foo") at the
	// start or end of a session — the topic-agnostic noise that pollutes
	// co-occurrence statistics in real logs.
	NoiseProb float64
	// LateTopicEvery marks every k-th topic (k = LateTopicEvery, offset 1)
	// as emerging only after EnterTestPhase is called, creating the
	// train/test vocabulary drift of real multi-month logs. 0 disables.
	LateTopicEvery int
	Start          time.Time
	Seed           int64
}

// DefaultConfig returns the configuration used by the experiment harness.
func DefaultConfig() Config {
	return Config{
		Universe:       DefaultUniverseConfig(),
		Machines:       4000,
		PatternMix:     DefaultPatternMix,
		ZipfS:          1.3,
		ZipfV:          2.0,
		MeanGapSec:     75,
		ShortBreakProb: 0.12,
		ClickProb:      0.7,
		NoiseProb:      0.25,
		LateTopicEvery: 9,
		Start:          time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
		Seed:           42,
	}
}

// LabeledSession is one generated intent unit with its ground-truth pattern
// label, used to reproduce Fig. 1 and to drive the user-study oracle.
type LabeledSession struct {
	Machine string
	Start   time.Time
	Queries []string
	Pattern Pattern
	Topic   int
}

// Generator produces a deterministic stream of labeled sessions and raw log
// records over a synthetic universe.
type Generator struct {
	cfg       Config
	universe  *Universe
	rng       *rand.Rand
	topicZ    *rand.Zipf
	rootZ     *rand.Zipf
	noiseZ    *rand.Zipf
	patCDF    [numPatterns]float64
	clock     []time.Time // per-machine current time
	testPhase bool
}

// New constructs a Generator. The same (Config, Seed) always yields the same
// stream.
func New(cfg Config) (*Generator, error) {
	u, err := NewUniverse(cfg.Universe)
	if err != nil {
		return nil, err
	}
	if cfg.Machines <= 0 {
		return nil, fmt.Errorf("loggen: Machines must be positive, got %d", cfg.Machines)
	}
	if cfg.ZipfS <= 1 || cfg.ZipfV < 1 {
		return nil, fmt.Errorf("loggen: Zipf parameters s=%v v=%v invalid (need s>1, v>=1)", cfg.ZipfS, cfg.ZipfV)
	}
	var sum float64
	for _, p := range cfg.PatternMix {
		if p < 0 {
			return nil, fmt.Errorf("loggen: negative pattern probability")
		}
		sum += p
	}
	if sum < 0.99 || sum > 1.01 {
		return nil, fmt.Errorf("loggen: pattern mix sums to %v, want 1", sum)
	}
	g := &Generator{cfg: cfg, universe: u, rng: rand.New(rand.NewSource(cfg.Seed))}
	g.topicZ = rand.NewZipf(g.rng, cfg.ZipfS, cfg.ZipfV, uint64(len(u.Topics)-1))
	g.rootZ = rand.NewZipf(g.rng, cfg.ZipfS, cfg.ZipfV, uint64(cfg.Universe.RootsPerTopic-1))
	if len(u.Universal) > 0 {
		g.noiseZ = rand.NewZipf(g.rng, cfg.ZipfS, cfg.ZipfV, uint64(len(u.Universal)-1))
	}
	acc := 0.0
	for i, p := range cfg.PatternMix {
		acc += p / sum
		g.patCDF[i] = acc
	}
	g.clock = make([]time.Time, cfg.Machines)
	for i := range g.clock {
		g.clock[i] = cfg.Start.Add(time.Duration(g.rng.Int63n(int64(24 * time.Hour))))
	}
	return g, nil
}

// Universe exposes the underlying synthetic vocabulary (for the oracle).
func (g *Generator) Universe() *Universe { return g.universe }

func (g *Generator) pickPattern() Pattern {
	x := g.rng.Float64()
	for i, c := range g.patCDF {
		if x <= c {
			return Pattern(i)
		}
	}
	return PatOther
}

// EnterTestPhase unlocks late-onset topics, simulating the query-trend
// drift between the paper's 120-day training window and 30-day test window.
func (g *Generator) EnterTestPhase() { g.testPhase = true }

func (g *Generator) isLate(t int) bool {
	return g.cfg.LateTopicEvery > 0 && t%g.cfg.LateTopicEvery == 1
}

func (g *Generator) pickTopic() int {
	t := int(g.topicZ.Uint64())
	for !g.testPhase && g.isLate(t) {
		t = (t + 1) % len(g.universe.Topics)
	}
	return t
}

func (g *Generator) pickRoot(t *Topic) int {
	return t.Roots[int(g.rootZ.Uint64())%len(t.Roots)]
}

// Session generates the next labeled session (intent unit).
func (g *Generator) Session() LabeledSession {
	m := g.rng.Intn(g.cfg.Machines)
	pat := g.pickPattern()
	ti := g.pickTopic()
	topic := &g.universe.Topics[ti]
	qs := g.walk(pat, topic)

	// Navigational noise: a topic-less query tacked onto the session,
	// mostly before the real intent ("check webmail, then search"). The
	// asymmetry matters: prepended noise creates symmetric co-occurrence
	// pairs with every query in the session but pollutes the forward
	// conditional of the noise query only — which is how navigational
	// queries poison co-occurrence statistics in real logs while leaving
	// context-conditional models largely untouched.
	if g.noiseZ != nil && g.rng.Float64() < g.cfg.NoiseProb {
		nq := g.universe.Universal[int(g.noiseZ.Uint64())%len(g.universe.Universal)]
		if g.rng.Float64() < 0.8 {
			qs = append([]string{nq}, qs...)
		} else {
			qs = append(qs, nq)
		}
	}

	// Advance this machine's clock by a break. Long breaks (>30 min) make
	// the segmenter start a new session; short breaks deliberately fuse
	// consecutive intents.
	var gap time.Duration
	if g.rng.Float64() < g.cfg.ShortBreakProb {
		gap = time.Duration(5+g.rng.Intn(20)) * time.Minute
	} else {
		gap = time.Duration(45+g.rng.Intn(600)) * time.Minute
	}
	g.clock[m] = g.clock[m].Add(gap)
	return LabeledSession{
		Machine: fmt.Sprintf("m%05d", m),
		Start:   g.clock[m],
		Queries: qs,
		Pattern: pat,
		Topic:   ti,
	}
}

// walk realises one session query sequence for the given pattern. Sequences
// are built from the topic's deterministic variants so that identical
// sessions recur across users, producing the power-law aggregation of
// Fig. 6.
func (g *Generator) walk(pat Pattern, topic *Topic) []string {
	ri := g.pickRoot(topic)
	root := &topic.Concepts[ri]
	switch pat {
	case PatSpelling:
		qs := []string{root.Typo, root.Query}
		return g.maybeExtend(qs, topic, ri)
	case PatParallel:
		// Move between two roots of the same topic (smtp => pop3).
		other := topic.Roots[(indexOf(topic.Roots, ri)+1)%len(topic.Roots)]
		qs := []string{root.Query, topic.Concepts[other].Query}
		if g.rng.Float64() < 0.3 && len(topic.Roots) > 2 {
			third := topic.Roots[(indexOf(topic.Roots, ri)+2)%len(topic.Roots)]
			qs = append(qs, topic.Concepts[third].Query)
		}
		return qs
	case PatGeneralization:
		// child => parent. Pick the deepest concept under the root.
		ci := deepest(topic, ri)
		if ci == ri {
			return []string{root.Query, root.Query} // degenerate: repeat
		}
		child := topic.Concepts[ci]
		return []string{child.Query, topic.Concepts[child.Parent].Query}
	case PatSpecialization:
		// Walk down the lattice: root => refinement => shared node =>
		// deep refinement (Table V style, up to 5 queries with the typo
		// prefix). The branch variant is chosen once per session and used
		// at every fork, so the deep continuation after the shared node is
		// determined by the session's entry branch — history the last
		// query alone cannot reveal.
		variant := g.rng.Intn(2)
		qs := []string{root.Query}
		if g.rng.Float64() < 0.3 && root.Typo != "" {
			qs = []string{root.Typo, root.Query}
		}
		ci := ri
		depth := 0
		for len(topic.Concepts[ci].Children) > 0 {
			ch := topic.Concepts[ci].Children
			next := ch[0]
			if len(ch) > 1 && variant == 1 {
				next = ch[1]
			}
			ci = next
			qs = append(qs, topic.Concepts[ci].Query)
			depth++
			if depth >= 2 && g.rng.Float64() < 0.4 {
				break
			}
		}
		return qs
	case PatSynonym:
		if root.Synonym != "" {
			return []string{root.Synonym, root.Query}
		}
		// Root without a synonym: fall back to a typo pair.
		return []string{root.Typo, root.Query}
	case PatRepeated:
		// aim => myspace => myspace => photobucket style: a repeat embedded
		// in topic navigation.
		other := topic.Roots[(indexOf(topic.Roots, ri)+1)%len(topic.Roots)]
		oq := topic.Concepts[other].Query
		if g.rng.Float64() < 0.5 {
			return []string{root.Query, oq, oq}
		}
		return []string{root.Query, root.Query}
	default: // PatOther: unrelated hops across topics (multi-tasking)
		qs := []string{root.Query}
		if g.rng.Float64() < 0.25 {
			return qs // single-query session (Table VI reason 2)
		}
		// Unrelated hops land on Zipf-random topics ("muzzle brake =>
		// shared calenders"): individually rare, so this junk stays diffuse
		// in every conditional distribution, exactly like real logs. A
		// third hop adds co-occurrence distance-2 pairs adjacency never
		// sees.
		t2 := g.partnerTopic(topic.Index)
		qs = append(qs, t2.Concepts[g.pickRoot(t2)].Query)
		if g.rng.Float64() < 0.5 {
			t3 := g.partnerTopic(topic.Index)
			qs = append(qs, t3.Concepts[g.pickRoot(t3)].Query)
		}
		return qs
	}
}

// maybeExtend occasionally appends a specialisation after a correction,
// producing longer mixed sessions.
func (g *Generator) maybeExtend(qs []string, topic *Topic, ri int) []string {
	if g.rng.Float64() < 0.3 && len(topic.Concepts[ri].Children) > 0 {
		ci := topic.Concepts[ri].Children[0]
		qs = append(qs, topic.Concepts[ci].Query)
	}
	return qs
}

// partnerTopic returns a Zipf-random multi-tasking partner topic distinct
// from ti.
func (g *Generator) partnerTopic(ti int) *Topic {
	n := len(g.universe.Topics)
	p := g.pickTopic()
	for p == ti {
		p = (p + 1) % n
	}
	return &g.universe.Topics[p]
}

func indexOf(xs []int, x int) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return 0
}

func deepest(topic *Topic, ri int) int {
	ci := ri
	for len(topic.Concepts[ci].Children) > 0 {
		ci = topic.Concepts[ci].Children[0]
	}
	return ci
}

// Records expands a labeled session into raw log records with simulated
// intra-session think times and clicks.
func (g *Generator) Records(ls LabeledSession) []logfmt.Record {
	recs := make([]logfmt.Record, 0, len(ls.Queries))
	t := ls.Start
	for i, q := range ls.Queries {
		if i > 0 {
			gap := time.Duration(g.rng.ExpFloat64() * g.cfg.MeanGapSec * float64(time.Second))
			if gap >= 29*time.Minute {
				gap = 29 * time.Minute
			}
			if gap < time.Second {
				gap = time.Second
			}
			t = t.Add(gap)
		}
		rec := logfmt.Record{MachineID: ls.Machine, Query: q, Time: t}
		if g.rng.Float64() < g.cfg.ClickProb {
			n := 1 + g.rng.Intn(2)
			for c := 0; c < n; c++ {
				rec.Clicks = append(rec.Clicks, logfmt.Click{
					URL:  fmt.Sprintf("www.%s.example.com/r%d", firstWord(q), c),
					Time: t.Add(time.Duration(10+g.rng.Intn(50)) * time.Second),
				})
			}
		}
		recs = append(recs, rec)
	}
	return recs
}

// GenerateSessions produces n labeled sessions.
func (g *Generator) GenerateSessions(n int) []LabeledSession {
	out := make([]LabeledSession, n)
	for i := range out {
		out[i] = g.Session()
	}
	return out
}

// GenerateRecords produces the raw-record expansion of n sessions, calling
// emit for every record. It also returns the labeled sessions for callers
// that need ground truth.
func (g *Generator) GenerateRecords(n int, emit func(logfmt.Record) error) ([]LabeledSession, error) {
	sessions := make([]LabeledSession, 0, n)
	for i := 0; i < n; i++ {
		ls := g.Session()
		sessions = append(sessions, ls)
		for _, rec := range g.Records(ls) {
			if err := emit(rec); err != nil {
				return sessions, err
			}
		}
	}
	return sessions, nil
}

func firstWord(q string) string {
	for i := 0; i < len(q); i++ {
		if q[i] == ' ' {
			return q[:i]
		}
	}
	return q
}
