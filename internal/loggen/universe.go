// Package loggen simulates a commercial search engine's query log. The paper
// evaluated on 150 days of proprietary logs; this package is the documented
// substitution (see ARCHITECTURE.md §1): a generative model producing raw log
// records with the same distributional shape — Zipf query popularity,
// topic-clustered vocabulary, the seven session-pattern types of Fig. 1,
// short geometric session lengths, and inter-query gaps that exercise the
// 30-minute session segmentation rule.
package loggen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Relation labels a directed semantic edge between two queries in the
// synthetic universe. The user-study oracle (Sec. V.H substitution) approves
// a predicted query when it is reachable from the context via these edges or
// shares the context's topic.
type Relation uint8

// Relation kinds mirror the paper's Table I search-pattern taxonomy.
const (
	RelNone       Relation = iota
	RelSpelling            // goggle -> google
	RelSynonym             // BAMC -> Brooke Army Medical Center
	RelSpecialize          // o2 -> o2 mobile
	RelGeneralize          // washington mutual home loans -> home loans
	RelParallel            // smtp -> pop3
	RelTopic               // same latent topic, no explicit edge
)

func (r Relation) String() string {
	switch r {
	case RelNone:
		return "none"
	case RelSpelling:
		return "spelling"
	case RelSynonym:
		return "synonym"
	case RelSpecialize:
		return "specialize"
	case RelGeneralize:
		return "generalize"
	case RelParallel:
		return "parallel"
	case RelTopic:
		return "topic"
	}
	return fmt.Sprintf("Relation(%d)", uint8(r))
}

// Concept is one node in a topic's refinement lattice: a canonical query
// string plus its deterministic variants (one typo form, optionally one
// synonym) and its specialisation children.
type Concept struct {
	Query    string
	Typo     string // deterministic misspelling of Query ("" if none)
	Synonym  string // alternative surface form ("" if none)
	Children []int  // indices into Topic.Concepts of specialisations
	Parent   int    // index of the generalisation, -1 for roots
	Depth    int    // 0 for roots
	Topic    int    // owning topic index
}

// Topic is a cluster of semantically related concepts. Sessions mostly stay
// within one topic, which is what gives context its disambiguation power
// (the paper's "Indonesia => Java" example).
type Topic struct {
	Index    int
	Concepts []Concept
	Roots    []int // indices of depth-0 concepts
}

// Universe is the complete synthetic query vocabulary with its relation
// graph. It is deterministic given a seed, so train and test windows share
// the same semantics.
type Universe struct {
	Topics []Topic
	// Universal holds navigational noise queries ("myspace"-style) that
	// belong to no topic: they are injected into sessions across all
	// topics, co-occur with everything, and are semantically related to
	// nothing — the pollution real pair-wise recommenders suffer from.
	Universal []string
	byQuery   map[string]conceptRef // canonical, typo and synonym forms all resolve
	universal map[string]bool
	generic   map[string]bool
}

type conceptRef struct {
	topic, concept int
	form           Relation // RelNone canonical, RelSpelling typo, RelSynonym synonym
}

// UniverseConfig controls the size and shape of the generated vocabulary.
type UniverseConfig struct {
	Topics        int // number of latent topics
	RootsPerTopic int // depth-0 concepts per topic
	// ChainDepth (>= 0) shapes the specialisations below each root: 0, 1
	// or 2 grow a linear chain of up to that many refinements; any value
	// >= 3 grows the same fixed depth-3 diamond (two refinements meeting on
	// a shared query, then diverging again), so 3 and 6 give identical
	// corpora.
	ChainDepth  int
	SynonymFrac float64
	// Universals is the number of topic-less navigational noise queries.
	Universals int
	// Generics is the pool size of ambiguous generic refinement queries
	// ("free download"-style) shared as diamond mid-nodes across topics —
	// the paper's "Java" ambiguity: the same query string funnels many
	// unrelated intents, and only the surrounding context disambiguates.
	Generics int
	Seed     int64
}

// DefaultUniverseConfig yields a vocabulary of roughly 10k queries — large
// enough relative to the default session counts that the Zipf tail stays
// unseen in training, reproducing the paper's ~60% test coverage ceiling.
func DefaultUniverseConfig() UniverseConfig {
	return UniverseConfig{
		Topics:        220,
		RootsPerTopic: 8,
		ChainDepth:    3,
		SynonymFrac:   0.3,
		Universals:    24,
		Generics:      8,
		Seed:          1,
	}
}

var syllables = []string{
	"ka", "ro", "mi", "ta", "lu", "ve", "no", "si", "da", "pe",
	"zu", "ha", "bel", "cor", "dun", "fal", "gor", "hin", "jas", "kel",
	"mar", "nov", "ost", "pra", "quil", "ras", "sol", "tur", "urn", "vex",
}

var modifiers = []string{
	"free", "download", "online", "reviews", "symptoms", "themes", "games",
	"for kids", "prices", "2008", "manual", "lyrics", "pictures", "jobs",
	"near me", "schedule", "parts", "login", "tickets", "recipes",
}

// word derives a deterministic pseudo-word from rng with 2–4 syllables.
func word(rng *rand.Rand) string {
	n := 2 + rng.Intn(3)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(syllables[rng.Intn(len(syllables))])
	}
	return b.String()
}

// typoOf derives a deterministic misspelling of q: swap two adjacent letters
// in the first word (or drop one letter for very short queries), mimicking
// the paper's "goggle => google" example.
func typoOf(q string, rng *rand.Rand) string {
	w := q
	if i := strings.IndexByte(q, ' '); i > 0 {
		w = q[:i]
	}
	b := []byte(w)
	if len(b) < 3 {
		return w + w[len(w)-1:] + q[len(w):]
	}
	i := 1 + rng.Intn(len(b)-2)
	b[i], b[i+1] = b[i+1], b[i]
	t := string(b) + q[len(w):]
	if t == q { // adjacent equal letters: drop one instead
		t = w[:i] + w[i+1:] + q[len(w):]
	}
	return t
}

// synonymOf derives an acronym-style alias: initials of a multi-word query
// ("brooke army medical center" -> "bamc") or a reversed-syllable alias for
// single words.
func synonymOf(q string) string {
	fields := strings.Fields(q)
	if len(fields) >= 2 {
		var b strings.Builder
		for _, f := range fields {
			b.WriteByte(f[0])
		}
		return b.String()
	}
	if len(q) >= 4 {
		mid := len(q) / 2
		return q[mid:] + q[:mid]
	}
	return q + "x"
}

// NewUniverse builds a deterministic synthetic query universe.
func NewUniverse(cfg UniverseConfig) (*Universe, error) {
	if cfg.Topics <= 0 || cfg.RootsPerTopic <= 0 || cfg.ChainDepth < 0 {
		return nil, fmt.Errorf("loggen: invalid universe config %+v", cfg)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	u := &Universe{byQuery: make(map[string]conceptRef)}
	seen := make(map[string]bool)

	// Ambiguous generic refinement queries, deliberately shared across
	// topics as diamond mid-nodes.
	u.generic = make(map[string]bool)
	var generics []string
	for len(generics) < cfg.Generics {
		g := modifiers[rng.Intn(len(modifiers))] + " " + modifiers[rng.Intn(len(modifiers))]
		if seen[g] {
			continue
		}
		seen[g] = true
		u.generic[g] = true
		generics = append(generics, g)
	}
	for t := 0; t < cfg.Topics; t++ {
		topic := Topic{Index: t}
		// A topic-specific noun shared by its roots keeps roots related.
		topicWord := word(rng)
		for r := 0; r < cfg.RootsPerTopic; r++ {
			var root string
			for {
				if rng.Float64() < 0.5 {
					root = word(rng) + " " + topicWord
				} else {
					root = word(rng)
				}
				if !seen[root] {
					break
				}
			}
			seen[root] = true
			idx := len(topic.Concepts)
			c := Concept{Query: root, Parent: -1, Depth: 0, Topic: t}
			c.Typo = typoOf(root, rng)
			if rng.Float64() < cfg.SynonymFrac {
				c.Synonym = synonymOf(root)
			}
			topic.Concepts = append(topic.Concepts, c)
			topic.Roots = append(topic.Roots, idx)

			addChild := func(parent int, q string, depth int) int {
				if seen[q] {
					return -1
				}
				seen[q] = true
				ci := len(topic.Concepts)
				child := Concept{Query: q, Parent: parent, Depth: depth, Topic: t}
				if depth == 1 {
					child.Typo = typoOf(q, rng)
				}
				topic.Concepts = append(topic.Concepts, child)
				topic.Concepts[parent].Children = append(topic.Concepts[parent].Children, ci)
				return ci
			}
			pickMod := func(avoid ...string) string {
			retry:
				for {
					m := modifiers[rng.Intn(len(modifiers))]
					for _, a := range avoid {
						if m == a {
							continue retry
						}
					}
					return m
				}
			}

			if cfg.ChainDepth >= 3 {
				// Diamond lattice: two depth-1 refinements reconverge on a
				// shared depth-2 query and diverge again at depth 3
				//
				//	root -> {root A, root B} -> M -> {root M X, root M Y}
				//
				// Sessions entering via A continue to X, via B to Y, so the
				// correct deep suggestion after M depends on history the
				// last query alone cannot reveal — the paper's "Indonesia
				// => Java" ambiguity, by construction. M is usually an
				// ambiguous generic query shared with other topics, so its
				// marginal follower distribution mixes many intents.
				modA := pickMod()
				modB := pickMod(modA)
				c1a := addChild(idx, root+" "+modA, 1)
				c1b := addChild(idx, root+" "+modB, 1)
				if c1a >= 0 {
					var mq string
					if len(generics) > 0 && rng.Float64() < 0.6 {
						mq = generics[rng.Intn(len(generics))]
					} else {
						mq = root + " " + pickMod(modA, modB)
					}
					// Force-add: generic mid-nodes deliberately recur
					// across topics.
					seen[mq] = true
					m := len(topic.Concepts)
					topic.Concepts = append(topic.Concepts, Concept{Query: mq, Parent: c1a, Depth: 2, Topic: t})
					topic.Concepts[c1a].Children = append(topic.Concepts[c1a].Children, m)
					if c1b >= 0 {
						// The shared node is reachable from both branches.
						topic.Concepts[c1b].Children = append(topic.Concepts[c1b].Children, m)
					}
					modX := pickMod()
					modY := pickMod(modX)
					addChild(m, root+" "+mq+" "+modX, 3)
					addChild(m, root+" "+mq+" "+modY, 3)
				}
			} else {
				// Shallow linear chain: root -> root X -> root X Y ...
				parent := idx
				q := root
				for d := 1; d <= cfg.ChainDepth; d++ {
					q = q + " " + modifiers[rng.Intn(len(modifiers))]
					ci := addChild(parent, q, d)
					if ci < 0 {
						break
					}
					parent = ci
				}
			}
		}
		u.Topics = append(u.Topics, topic)
	}
	// Topic-less navigational noise queries.
	u.universal = make(map[string]bool)
	for i := 0; i < cfg.Universals; i++ {
		q := "www " + word(rng)
		if seen[q] {
			continue
		}
		seen[q] = true
		u.Universal = append(u.Universal, q)
		u.universal[q] = true
	}
	// Index every surface form.
	for ti := range u.Topics {
		for ci := range u.Topics[ti].Concepts {
			c := &u.Topics[ti].Concepts[ci]
			u.index(c.Query, conceptRef{ti, ci, RelNone})
			if c.Typo != "" && c.Typo != c.Query {
				u.index(c.Typo, conceptRef{ti, ci, RelSpelling})
			}
			if c.Synonym != "" && c.Synonym != c.Query {
				u.index(c.Synonym, conceptRef{ti, ci, RelSynonym})
			}
		}
	}
	return u, nil
}

// index records a surface form, keeping the first binding when typo/synonym
// collisions occur across concepts (rare but possible).
func (u *Universe) index(q string, ref conceptRef) {
	if _, ok := u.byQuery[q]; !ok {
		u.byQuery[q] = ref
	}
}

// NumQueries reports the number of distinct surface forms in the universe.
func (u *Universe) NumQueries() int { return len(u.byQuery) + len(u.Universal) }

// IsUniversal reports whether q is one of the topic-less noise queries.
func (u *Universe) IsUniversal(q string) bool { return u.universal[q] }

// IsGeneric reports whether q is one of the ambiguous generic refinement
// queries shared across topics.
func (u *Universe) IsGeneric(q string) bool { return u.generic[q] }

// Relate classifies the semantic relation from query a to query b:
// an explicit edge kind when one exists, RelTopic when they merely share a
// topic, and RelNone otherwise. This powers the simulated user study.
func (u *Universe) Relate(a, b string) Relation {
	ra, oka := u.byQuery[a]
	rb, okb := u.byQuery[b]
	if !oka || !okb {
		return RelNone
	}
	if ra.topic == rb.topic && ra.concept == rb.concept {
		// Same concept, different surface forms.
		switch {
		case ra.form == RelSpelling || rb.form == RelSpelling:
			return RelSpelling
		case ra.form == RelSynonym || rb.form == RelSynonym:
			return RelSynonym
		default:
			return RelTopic // identical canonical query (repeat)
		}
	}
	if ra.topic != rb.topic {
		return RelNone
	}
	ca := u.Topics[ra.topic].Concepts[ra.concept]
	cb := u.Topics[rb.topic].Concepts[rb.concept]
	switch {
	case ca.Parent == rb.concept:
		return RelGeneralize
	case cb.Parent == ra.concept:
		return RelSpecialize
	case ca.Parent == cb.Parent && ca.Depth == cb.Depth:
		return RelParallel
	default:
		return RelTopic
	}
}

// Related reports whether b is an appropriate recommendation after query a
// under the user-study oracle's criteria, mirroring the judgements the
// paper's labelers were asked to make: clear reformulation relationships
// (spelling fix, synonym, specialisation, generalisation, parallel move —
// the Table I taxonomy), exact repeats, and refinements along the same
// lineage are approved; vague same-topic associations across lineages,
// cross-topic hops and navigational noise are rejected.
func (u *Universe) Related(a, b string) bool {
	switch u.Relate(a, b) {
	case RelSpelling:
		// Direction matters: correcting a typo is approved, recommending a
		// misspelling is not. Symmetric statistics (co-occurrence) suggest
		// both directions; labelers only accept the canonical form.
		return !u.isTypoForm(b)
	case RelSynonym, RelSpecialize, RelGeneralize, RelParallel:
		return true
	case RelTopic:
		ra := u.byQuery[a]
		rb := u.byQuery[b]
		if ra.concept == rb.concept {
			return true // repeat / surface-form variant
		}
		topic := &u.Topics[ra.topic]
		return reachable(topic, ra.concept, rb.concept) || reachable(topic, rb.concept, ra.concept)
	default:
		return false
	}
}

// isTypoForm reports whether q is a misspelled surface form.
func (u *Universe) isTypoForm(q string) bool {
	ref, ok := u.byQuery[q]
	return ok && ref.form == RelSpelling
}

// reachable reports whether concept 'to' is a (transitive) refinement of
// concept 'from', following Children edges — which include the diamond's
// reconvergence edge, so both entry branches count as lineage of the shared
// node.
func reachable(t *Topic, from, to int) bool {
	stack := []int{from}
	seenC := map[int]bool{from: true}
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ch := range t.Concepts[c].Children {
			if ch == to {
				return true
			}
			if !seenC[ch] {
				seenC[ch] = true
				stack = append(stack, ch)
			}
		}
	}
	return false
}

// Queries returns all canonical queries (not typos/synonyms) in a stable
// order, used by tests to iterate the vocabulary.
func (u *Universe) Queries() []string {
	var out []string
	for _, t := range u.Topics {
		for _, c := range t.Concepts {
			out = append(out, c.Query)
		}
	}
	return out
}
