package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// sink is the in-process ResponseWriter: response bytes land in one buffer
// that is sized during warm-up, so writing a response never allocates.
type sink struct {
	hdr  http.Header
	code int
	buf  []byte
}

func (s *sink) Header() http.Header { return s.hdr }

func (s *sink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}

func (s *sink) Write(p []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// caller is the single closed-loop client: it replays the pool's requests in
// order against one handler and keeps every response of the current lap.
type caller struct {
	h     http.Handler
	p     *pool
	out   sink
	ends  []int // ends[i] is len(out.buf) after request i's response
	codes []int
	ref   [][][]byte // per request: lap 1's body cut at its took_us values
	// hits and covered are read off lap 1's responses: contexts whose true
	// next query is in the served top-N, and contexts with any suggestion.
	hits, covered int
}

func newCaller(h http.Handler, p *pool) *caller {
	return &caller{
		h:     h,
		p:     p,
		out:   sink{hdr: make(http.Header, 8)},
		ends:  make([]int, len(p.reqs)),
		codes: make([]int, len(p.reqs)),
	}
}

// lap replays the pool once and returns how long that took. The loop is the
// timed region of the benchmark: it allocates nothing of its own.
func (c *caller) lap() time.Duration {
	c.out.buf = c.out.buf[:0]
	start := time.Now()
	for i, r := range c.p.reqs {
		if c.p.rds != nil {
			c.p.rds[i].Reset(c.p.bodies[i])
		}
		c.out.code = 0
		c.h.ServeHTTP(&c.out, r)
		c.ends[i] = len(c.out.buf)
		c.codes[i] = c.out.code
	}
	return time.Since(start)
}

// body returns request i's response from the lap just replayed.
func (c *caller) body(i int) []byte {
	lo := 0
	if i > 0 {
		lo = c.ends[i-1]
	}
	return c.out.buf[lo:c.ends[i]]
}

// adoptReference checks the lap just replayed against the oracle — status
// 200 and suggestions (queries and scores, in order) equal to
// core.RecommendIDs on the same model — and keeps its bodies as the
// reference every later lap must repeat. It returns the number of responses
// that failed.
func (c *caller) adoptReference() (failed int, err error) {
	c.ref = make([][][]byte, len(c.p.reqs))
	c.hits, c.covered = 0, 0
	for i := range c.p.reqs {
		body := c.body(i)
		c.ref[i] = splitTook(body)
		items := c.p.items[i*c.p.perReq : (i+1)*c.p.perReq]
		var got []serve.SuggestResponse
		if c.codes[i] == http.StatusOK {
			if got, err = decodeResponses(body, c.p.perReq); err != nil {
				return 0, fmt.Errorf("request %d: %w", i, err)
			}
		}
		if len(got) != len(items) {
			failed++
			continue
		}
		ok := true
		for k, it := range items {
			ok = ok && sameSuggestions(got[k].Suggestions, it.want)
			if len(got[k].Suggestions) > 0 {
				c.covered++
			}
			for _, s := range got[k].Suggestions {
				if s.Query == it.next {
					c.hits++
					break
				}
			}
		}
		if !ok {
			failed++
		}
	}
	// Leave headroom over lap 1's size: took_us values gain digits on slow
	// laps, and the timed loop must never grow the buffer.
	grown := make([]byte, len(c.out.buf), len(c.out.buf)+len(c.out.buf)/8+4096)
	copy(grown, c.out.buf)
	c.out.buf = grown
	return failed, nil
}

// verify counts the responses of the lap just replayed that are not status
// 200 or whose body, took_us aside, differs from lap 1's for the same
// request. Lap 1 matched the oracle, so a lap that matches lap 1 does too.
func (c *caller) verify() (failed int) {
	for i := range c.p.reqs {
		if c.codes[i] != http.StatusOK || !matchMasked(c.ref[i], c.body(i)) {
			failed++
		}
	}
	return failed
}

// responseHash fingerprints the reference lap's bodies with took_us masked:
// equal seeds must give equal hashes, run after run.
func (c *caller) responseHash() uint64 {
	h := fnv.New64a()
	for _, chunks := range c.ref {
		for _, ch := range chunks {
			h.Write(ch)
		}
	}
	return h.Sum64()
}

// decodeResponses decodes a GET body (perReq == 1) or a batch body into one
// SuggestResponse per context.
func decodeResponses(body []byte, perReq int) ([]serve.SuggestResponse, error) {
	if perReq == 1 {
		var r serve.SuggestResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		return []serve.SuggestResponse{r}, nil
	}
	var br serve.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		return nil, err
	}
	return br.Results, nil
}

func sameSuggestions(got []serve.Suggestion, want []core.Suggestion) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Query != want[i].Query || got[i].Score != want[i].Score {
			return false
		}
	}
	return true
}

var tookKey = []byte(`"took_us":`)

// splitTook cuts body after every "took_us": key and drops the number that
// follows, returning copies of the literal chunks in between. A quote inside
// a JSON string is escaped, so the key cannot occur inside a context.
func splitTook(body []byte) [][]byte {
	var chunks [][]byte
	for {
		i := bytes.Index(body, tookKey)
		if i < 0 {
			return append(chunks, bytes.Clone(body))
		}
		i += len(tookKey)
		chunks = append(chunks, bytes.Clone(body[:i]))
		body = body[i:]
		for len(body) > 0 && '0' <= body[0] && body[0] <= '9' {
			body = body[1:]
		}
	}
}

// matchMasked reports whether body equals the chunks splitTook produced,
// with any run of digits accepted where a took_us value was cut out.
func matchMasked(chunks [][]byte, body []byte) bool {
	for k, ch := range chunks {
		if !bytes.HasPrefix(body, ch) {
			return false
		}
		body = body[len(ch):]
		if k == len(chunks)-1 {
			break
		}
		digits := 0
		for digits < len(body) && '0' <= body[digits] && body[digits] <= '9' {
			digits++
		}
		if digits == 0 {
			return false
		}
		body = body[digits:]
	}
	return len(body) == 0
}
