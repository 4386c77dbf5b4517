package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// resultLines frames results as a shard's NDJSON answer: line j carries
// results[j] under index j.
func resultLines(results ...string) string {
	var sb strings.Builder
	for j, r := range results {
		fmt.Fprintf(&sb, `{"index":%d,"result":%s}`+"\n", j, r)
	}
	return sb.String()
}

// TestParseResultLines pins the router↔shard line protocol: an answer is
// taken only when every line is framed {"index":j,"result":{...}} with j the
// line's position, ends in a newline, and there is one line per item sent;
// the spans are then the result objects, byte for byte.
func TestParseResultLines(t *testing.T) {
	a, b, c := `{"context":["o2"],"suggestions":[],"took_us":1}`, `{}`, `{"context":["}}","\n"],"took_us":0}`
	twelve := make([]string, 12) // two-digit indices
	for j := range twelve {
		twelve[j] = fmt.Sprintf(`{"took_us":%d}`, j)
	}
	for _, tc := range []struct {
		name  string
		resp  string
		items int
		want  []string // nil: the answer must be refused
	}{
		{"one", resultLines(a), 1, []string{a}},
		{"three", resultLines(a, b, c), 3, []string{a, b, c}},
		{"two-digit indices", resultLines(twelve...), 12, twelve},
		{"empty answer", "", 1, nil},
		{"missing final newline", strings.TrimSuffix(resultLines(a, b), "\n"), 2, nil},
		{"truncated last line", resultLines(a, b)[:len(resultLines(a, b))-5], 2, nil},
		{"truncated at a line boundary", resultLines(a), 2, nil},
		{"one line too many", resultLines(a, b), 1, nil},
		{"wrong index", resultLines(a) + `{"index":2,"result":{}}` + "\n", 2, nil},
		{"repeated index", resultLines(a) + `{"index":0,"result":{}}` + "\n", 2, nil},
		{"index with a sign", `{"index":+0,"result":{}}` + "\n", 1, nil},
		{"array result", `{"index":0,"result":[]}` + "\n", 1, nil},
		{"string result", `{"index":0,"result":"x"}` + "\n", 1, nil},
		{"error line", `{"index":0,"error":{"code":"bad_gateway","message":"x"}}` + "\n", 1, nil},
		{"one brace short", `{"index":0,"result":{}` + "\n", 1, nil},
		{"frame only", `{"index":0,"result":{` + "\n", 1, nil},
		{"CRLF", `{"index":0,"result":{}}` + "\r\n", 1, nil},
		{"blank line between", resultLines(a) + "\n" + `{"index":1,"result":{}}` + "\n", 2, nil},
		{"item broken across lines", `{"index":0,"result":{"context":["a",` + "\n" + `"b"]}}` + "\n", 1, nil},
		{"buffered form", `{"results":[{}],"took_us":3}`, 1, nil},
		{"error envelope", `{"error":{"code":"internal","message":"x"}}` + "\n", 1, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			call := &shardCall{resp: []byte(tc.resp), items: make([]int, tc.items)}
			err := call.parseResults()
			if tc.want == nil {
				if err == nil {
					t.Fatalf("answer accepted with spans %v:\n%s", call.spans, tc.resp)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(call.spans) != len(tc.want) {
				t.Fatalf("%d spans, want %d", len(call.spans), len(tc.want))
			}
			for j, sp := range call.spans {
				if got := string(call.resp[sp[0]:sp[1]]); got != tc.want[j] {
					t.Fatalf("span %d = %s, want %s", j, got, tc.want[j])
				}
			}
		})
	}
}

// FuzzParseResultLines throws arbitrary answers at the line check. Whatever
// it accepts must be exactly its frames around its spans — one span per item,
// each a single line opening and closing a brace — and wherever a line is the
// shard's wire shape, the span is what encoding/json decodes as that line's
// result. Framing the fuzzed bytes as results of an honest shard must be
// accepted whenever they are JSON objects on one line.
func FuzzParseResultLines(f *testing.F) {
	f.Add([]byte(resultLines(`{"context":["o2"],"suggestions":[{"query":"o2 mobile","score":0.5}],"took_us":3}`, `{}`)), 2)
	f.Add([]byte(resultLines(`{}`)), 2)
	f.Add([]byte(`{"index":0,"result":{}}`), 1)
	f.Add([]byte(`{"index":0,"result":{}}`+"\n"+`{"index":0,"result":{}}`+"\n"), 2)
	f.Add([]byte(`{"index":0,"result":{"a":1},"x":{}}`+"\n"), 1)
	f.Add([]byte(`{"a":"}}\n"}`), 1)
	f.Add([]byte("{\"a\":\n1}"), 1)
	f.Fuzz(func(t *testing.T, resp []byte, items int) {
		if items < 0 || items > 300 {
			return
		}
		call := &shardCall{resp: resp, items: make([]int, items)}
		if call.parseResults() == nil {
			if len(call.spans) != items {
				t.Fatalf("accepted %d spans for %d items", len(call.spans), items)
			}
			var rebuilt []byte
			for j, sp := range call.spans {
				span := resp[sp[0]:sp[1]]
				if len(span) < 2 || span[0] != '{' || span[len(span)-1] != '}' || bytes.IndexByte(span, '\n') >= 0 {
					t.Fatalf("span %d is not one braced line: %q", j, span)
				}
				line := fmt.Sprintf(`{"index":%d,"result":%s}`, j, span)
				rebuilt = append(append(rebuilt, line...), '\n')
				var rec struct {
					Index  int             `json:"index"`
					Result json.RawMessage `json:"result"`
				}
				if json.Unmarshal([]byte(line), &rec) != nil {
					continue
				}
				if wire := fmt.Sprintf(`{"index":%d,"result":%s}`, rec.Index, rec.Result); wire == line && !bytes.Equal(rec.Result, span) {
					t.Fatalf("span %d = %q, encoding/json reads the result as %q", j, span, rec.Result)
				}
			}
			if !bytes.Equal(rebuilt, resp) {
				t.Fatalf("accepted answer is not its frames around its spans:\n%q\n%q", resp, rebuilt)
			}
		}

		// The same bytes as an honest shard's result, repeated once per item.
		honest := json.Valid(resp) && len(resp) > 0 && resp[0] == '{' && bytes.IndexByte(resp, '\n') < 0
		if items == 0 {
			return
		}
		results := make([]string, items)
		for j := range results {
			results[j] = string(resp)
		}
		call = &shardCall{resp: []byte(resultLines(results...)), items: make([]int, items)}
		err := call.parseResults()
		if honest && err != nil {
			t.Fatalf("honest answer refused: %v", err)
		}
		if err == nil {
			for j, sp := range call.spans {
				if !bytes.Equal(call.resp[sp[0]:sp[1]], resp) {
					t.Fatalf("span %d = %q, want the framed result %q", j, call.resp[sp[0]:sp[1]], resp)
				}
			}
		}
	})
}
