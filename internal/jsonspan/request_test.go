package jsonspan

import (
	"bytes"
	"encoding/json"
	"io"
	"net/url"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// refItem is what the reference decoder reads of one batch item.
type refItem struct {
	ctx []string
	n   int
}

// refDecode is the oracle for AppendBatch: ARCHITECTURE §9's rule written a
// second time, over encoding/json's tokenizer, sharing no code with the
// walker. It reports the body's items, or false for a body the rule refuses.
func refDecode(body []byte) (items []refItem, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	bad := false // sticky: what is read after the first fault is not used
	tok := func() json.Token { t, err := dec.Token(); bad = bad || err != nil; return t }
	want := func(d json.Delim) { bad = bad || tok() != d }
	// key reads an object key sent in exactly the bytes it decodes to ("" for
	// any other: a token that decodes to s and ends in `"s"` has no escapes).
	key := func() string {
		s, _ := tok().(string)
		if !bytes.HasSuffix(body[:dec.InputOffset()], []byte(`"`+s+`"`)) {
			return ""
		}
		return s
	}
	want('{')
	bad = bad || !dec.More() || key() != "requests"
	want('[')
	for !bad && dec.More() {
		var it refItem
		seen := map[string]bool{}
		want('{')
		for !bad && dec.More() {
			k := key()
			bad, seen[k] = bad || seen[k], true
			switch k {
			case "context":
				want('[')
				for !bad && dec.More() {
					s, isString := tok().(string)
					bad, it.ctx = bad || !isString, append(it.ctx, s)
				}
				want(']')
			case "n":
				num, _ := tok().(json.Number)
				v, err := strconv.Atoi(string(num)) // of JSON's numbers, Atoi reads -?(0|[1-9][0-9]*)
				bad, it.n = bad || err != nil, v
			default:
				bad = true
			}
		}
		want('}')
		items = append(items, it)
	}
	want(']')
	want('}') // a second member is no '}'
	_, err := dec.Token()
	return items, !bad && err == io.EOF
}

// acceptedBodies and refusedBodies seed the walker's tests: serve's
// TestBatchBodyGrammar and fleet's TestRoutedBatchBodyGrammar tables and
// FuzzRoutedBatchNeverBlamesShard's corpus, the bodies whose verdict
// ARCHITECTURE §9 changed among them.
var acceptedBodies = []string{
	`{"requests":[{"context":["o2"]}]}`,
	` { "requests" : [ { "context" : [ "o2" , "o2 mobile" ] , "n" : 2 } , { "n" : 1 , "context" : [ "o2" ] } ] } `,
	"{\n  \"requests\": [\n    {\n      \"context\": [\n        \"o2\",\r\n        \"o2 mobile\"\n      ]\n    },\n\t{\"context\": [\"nokia n73\"], \"n\": 1}\n  ]\n}\n",
	`{"requests":[{"context":["\u00e9\"\\\/\b\f\n\r\t","😀","\ud83d"]}]}`,
	`{"requests":[{"context":["}}\n{\"index\":1,\"result\":{"]},{"context":["o2"]}]}`,
	"{\"requests\":[{\"context\":[\"bad utf8 \xff\"]}]}",
	// Grammar, not policy: these are for the consumer to refuse.
	`{"requests":[{"context":[]},{},{"n":7}]}`,
	`{"requests":[]}`,
	`{"requests":[{"context":["o2"],"n":-0}]}`,
	`{"requests":[{"context":["o2"],"n":100000}]}`,
	`{"requests":[{"context":["o2"],"n":-3}]}`,
}

var refusedBodies = []string{
	`{"requests":[{"context":["o2"],"n":99999999999999999999}]}`,
	`{"requests":[{"context":["o2"],"n":+2}]}`,
	`{"requests":[{"context":["o2"],"n":02}]}`,
	`{"requests":[{"context":["o2"],"n":1e0}]}`,
	`{"requests":[{"context":["o2"],"n":1.5}]}`,
	`{"requests":[{"context":["o2"],"n":"1"}]}`,
	`{"requests":[{"context":["o2"],"n":null}]}`,
	`{"requests":[{"context":["o2"],"n":-}]}`,
	`{"requests":[{"context":["o2"],"n":1,"n":3}]}`,
	`{"requests":[{"context":["o2"],"context":["o2 mobile"]}]}`,
	`{"requests":[{"context":["o2"]}],"requests":[{"context":["nokia n73"]}]}`,
	`{"requests":[],"requests":[{"context":["o2"]}]}`,
	`{"requests":[{"context":["o2"]}],"requests":5}`,
	`{"requests":[{"context":["o2"]}]}{"bogus":1}`,
	`{"requests":[{"context":["o2"]}]} x`,
	`{"requests":[{"context":["o2"]}],"bogus":1}`,
	`{"bogus":1,"requests":[{"context":["o2"]}]}`,
	`{"<b>&":1}`,
	"{\"a\u2028b\":1}",
	`{"\u0072equests":[{"context":["o2"]}]}`,
	`{"requests":[{"\u0063ontext":["o2"]}]}`,
	`{"x\"requests":[]}`,
	`{"requests":[{"context":["o2"],"nope":1}]}`,
	`{"requests":[{"context":null}]}`,
	`{"requests":[{"context":"o2"}]}`,
	`{"requests":[{"context":["o2",7]}]}`,
	`{"requests":[{"context":[["o2"]]}]}`,
	`{"requests":[{"context":[,"o2",]}]}`,
	`{"requests":[{"context":["o2",,"o2 mobile"]}]}`,
	`{"requests":[{"context":["o2""o2 mobile"]}]}`,
	`{"requests":[{"context":["o2" "o2 mobile"]}]}`,
	`{"requests":[{,"context":["o2"]}]}`,
	`{"requests":[{"context":["o2"],}]}`,
	`{"requests":[{"context":["o2"]"n":1}]}`,
	`{"requests":[{"context":["o2"]:1}]}`,
	`{"requests":[,{"context":["o2"]}]}`,
	`{"requests":[{"context":["o2"]},]}`,
	`{"requests":[{"context":["o2"]}{"context":["o2"]}]}`,
	`{,"requests":[{"context":["o2"]}]}`,
	`{"requests":[{"context":["o2"]}],}`,
	`{"requests":[{"context":["o2"]}]`,
	`{"requests":[{"context":["o2"]}],"requests"}`,
	`{"requests":[{"context":["o2"]}],requests:[]}`,
	`{"requests":{"0":{"context":["o2"]}}}`,
	`{"requests":[1]}`,
	`{"requests":[}`,
	`{"requests":[{"context":[}]}`,
	`{"requests":[{"context":["o\2"]}]}`,
	`{"requests":[{"context":["\u12g4"]}]}`,
	`{"requests":[{"context":["\u12"]}]}`,
	`{"requests":[{"context":["\0"]}]`,
	"{\"requests\":[{\"context\":[\"a\nb\"]},{\"context\":[\"o2\"]}]}",
	"{\"requests\":[{\"context\":[\"a\\\n\"]}]}",
	`{"requests":[{"context":["o2"],"n":{"x":[1]}},1,"x",[],{}]}`,
	`[{"context":["o2"]}]`,
	`{}`,
	``,
	`{"requests":`,
	`{"requests"`,
	`{"requests":[{"context":["o2`,
}

// checkBatch is the walker's differential property: it accepts a body iff the
// reference does, then yields the reference's contexts and ns; every context
// span it yields is the JSON array of those strings, every item span one JSON
// value, and the spans advance through the body.
func checkBatch(t *testing.T, body []byte) {
	t.Helper()
	prefix := []Item{{N: -7}}
	items, toks, err := AppendBatch(prefix, [][2]int{{-7, -7}}, body)
	want, ok := refDecode(body)
	if (err == nil) != ok {
		t.Fatalf("AppendBatch(%q): %v; the reference decoder accepts: %v", body, err, ok)
	}
	if err != nil {
		return
	}
	if items[0] != prefix[0] || toks[0] != [2]int{-7, -7} {
		t.Fatalf("AppendBatch(%q) overwrote what it appends to", body)
	}
	if items = items[1:]; len(items) != len(want) {
		t.Fatalf("AppendBatch(%q) = %d items, the reference decoder reads %d", body, len(items), len(want))
	}
	at := 0
	for i, it := range items {
		if it.Span[0] < at || it.Span[1] <= it.Span[0] || it.Span[1] > len(body) || !json.Valid(body[it.Span[0]:it.Span[1]]) {
			t.Fatalf("AppendBatch(%q): item %d spans %v, after offset %d", body, i, it.Span, at)
		}
		at = it.Span[1]
		if it.N != want[i].n {
			t.Fatalf("AppendBatch(%q): item %d has n %d, the reference decoder reads %d", body, i, it.N, want[i].n)
		}
		var got []string
		for _, sp := range toks[it.TokLo:it.TokHi] {
			got = append(got, string(AppendUnescaped(nil, body[sp[0]:sp[1]])))
		}
		if utf8.Valid(body) && !slices.Equal(got, want[i].ctx) { // encoding/json replaces invalid UTF-8, the walker passes it on
			t.Fatalf("AppendBatch(%q): item %d has context %q, the reference decoder reads %q", body, i, got, want[i].ctx)
		}
		if it.Context == [2]int{} {
			if it.TokHi != it.TokLo {
				t.Fatalf("AppendBatch(%q): item %d has strings and no context span", body, i)
			}
			continue
		}
		var echoed []string
		if it.Context[0] <= it.Span[0] || it.Context[1] >= it.Span[1] || json.Unmarshal(body[it.Context[0]:it.Context[1]], &echoed) != nil || !slices.Equal(echoed, want[i].ctx) {
			t.Fatalf("AppendBatch(%q): item %d's context span %v holds %q, the reference decoder reads %q", body, i, it.Context, echoed, want[i].ctx)
		}
	}
}

func TestAppendBatchMatchesReference(t *testing.T) {
	for want, bodies := range map[bool][]string{true: acceptedBodies, false: refusedBodies} {
		for _, body := range bodies {
			if _, ok := refDecode([]byte(body)); ok != want {
				t.Fatalf("the reference decoder accepts %q: %v, want %v", body, ok, want)
			}
			checkBatch(t, []byte(body))
		}
	}
	// The refusal names the item, by its index in the client's batch.
	_, _, err := AppendBatch(nil, nil, []byte(`{"requests":[{"context":["a"]},{"context":["b"],"nope":1}]}`))
	if err == nil || err.Error() != `requests[1]: unknown field "nope"` {
		t.Fatalf("refusal = %v", err)
	}
}

func FuzzBatchWalker(f *testing.F) {
	for _, body := range append(acceptedBodies, refusedBodies...) {
		f.Add([]byte(body))
	}
	for _, row := range walkIntRows {
		f.Add([]byte(`{"requests":[{"context":["o2"],"n":` + row.in + `}]}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkBatch(t, body) })
}

// walkIntRows are "n" values around what walkInt reads itself and what it
// leaves to strconv.Atoi: the 18 digits it sums, int's edges past them, and
// the shapes JSON or Atoi refuse.
var walkIntRows = []struct {
	in string
	ok bool
}{
	{"0", true}, {"5", true}, {"-0", true}, {"01", false}, {"+5", false}, {"5x", false}, {"1e2", false},
	{"-", false}, {"", false}, {"123456789012345678", true}, {"-999999999999999999", true},
	{"9223372036854775807", true}, {"9223372036854775808", false},
	{"-9223372036854775808", true}, {"-9223372036854775809", false},
}

// atoiWalkInt is the reference for walkInt: the same grammar check, with every
// value read by strconv.Atoi.
func atoiWalkInt(b []byte, i int) (v, next int, ok bool) {
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	digits := j
	for j < len(b) && '0' <= b[j] && b[j] <= '9' {
		j++
	}
	ended := j == len(b) || strings.IndexByte(", \t\r\n}", b[j]) >= 0
	if j == digits || (b[digits] == '0' && j > digits+1) || !ended {
		return 0, 0, false
	}
	if v, err := strconv.Atoi(string(b[i:j])); err == nil {
		return v, j, true
	}
	return 0, 0, false
}

func TestWalkIntMatchesAtoi(t *testing.T) {
	for _, row := range walkIntRows {
		for _, end := range []string{"", "}", ",", " ", "\t", "\r", "\n", "]", "x"} {
			b := []byte(`"n":` + row.in + end)
			v, next, err := walkInt(b, 4)
			wantV, wantNext, ok := atoiWalkInt(b, 4)
			if (err == nil) != ok || v != wantV || next != wantNext {
				t.Errorf("walkInt(%q) = %d, %d, %v; strconv.Atoi reads %d, %d, %v", b, v, next, err, wantV, wantNext, ok)
			}
			if end == "}" && ok != row.ok {
				t.Errorf("%q: accepted %v, want %v", b, ok, row.ok)
			}
		}
	}
}

// queryStrings seeds the query walker's tests: serve's
// TestParseSuggestQueryMatchesURLValues and fleet's
// TestHashRawMatchesStringContext tables.
var queryStrings = []string{
	"q=o2", "q=o2&q=o2+mobile", "q=a%20b&q=%68%65%78", "q=&q=x", "q=100%", "q=ok&q=bad%zz", "n=3&q=x", "q=x&n=",
	"q=x&n=5&n=9", "q=%E6%97%A5%E6%9C%AC", "other=ignored&q=x", "", "&&q=x&&", "q=X&q=%4", "q=X&bogus", "q=%&q=X",
	"q%zz=Y&q=X", "%71=X", "=x", "q", "q==", "q=a=b", "stream=1", "q=a;b&q=c", "a;b=c", ";", "q=%3B",
}

// checkQuery is the query walker's differential property: the pairs it yields
// are url.ParseQuery's, each key's values in order. The one deliberate
// difference is the raw ';': ParseQuery drops a pair that holds one (a proxy
// might split there), the walker serves it as the byte somebody typed — so
// the reference is asked about the string with every ';' escaped.
func checkQuery(t *testing.T, raw string) {
	t.Helper()
	want, _ := url.ParseQuery(strings.ReplaceAll(raw, ";", "%3B"))
	got := url.Values{}
	q := Query(raw)
	for key, val, buf, ok := q.Next([]byte("buf:")); ok; key, val, buf, ok = q.Next(buf) {
		got.Add(key, string(val))
		if !bytes.HasPrefix(buf, []byte("buf:")) {
			t.Fatalf("Query(%q) rewrote its buffer: %q", raw, buf)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Query(%q) = %q, url.ParseQuery reads %q", raw, got, want)
	}
}

func TestQueryMatchesURLParseQuery(t *testing.T) {
	for _, raw := range queryStrings {
		checkQuery(t, raw)
	}
	// Views stay good while the walk goes on, whatever the buffer does.
	var keep [][]byte
	q := Query(strings.Repeat("q=0123456789&", 50))
	for _, val, buf, ok := q.Next(nil); ok; _, val, buf, ok = q.Next(buf) {
		keep = append(keep, val)
	}
	for _, val := range keep {
		if len(keep) != 50 || string(val) != "0123456789" {
			t.Fatalf("%d values, one of them %q", len(keep), val)
		}
	}
}

func FuzzQueryWalker(f *testing.F) {
	for _, raw := range queryStrings {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) { checkQuery(t, raw) })
}

// TestAppendError: the envelope and the error line are what encoding/json
// reads back as the code and the message, whatever the message quotes.
func TestAppendError(t *testing.T) {
	for _, msg := range []string{"use POST", `unknown field "<b>&"`, "a b", "tab\tquote\"slash\\ctl\x01", "bad utf8 \xff", ""} {
		for _, open := range []string{`{`, `{"index":3,`} {
			line := AppendError([]byte(open), "bad_request", msg)
			var env struct {
				Error struct{ Code, Message string }
			}
			if err := json.Unmarshal(line, &env); err != nil || env.Error.Code != "bad_request" || env.Error.Message != strings.ToValidUTF8(msg, "�") {
				t.Errorf("AppendError(%q, %q) = %s: reads back as %+v (%v)", open, msg, line, env, err)
			}
			if !bytes.HasSuffix(line, []byte("}}\n")) || bytes.Count(line, []byte("\n")) != 1 {
				t.Errorf("AppendError(%q, %q) = %q: not one closed line", open, msg, line)
			}
		}
	}
}
