package jsonspan

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"unicode/utf8"
)

func TestSkipSpace(t *testing.T) {
	for _, tc := range []struct {
		in   string
		from int
		want int
	}{
		{"", 0, 0},
		{"x", 0, 0},
		{" \t\r\n x", 0, 5},
		{"  ", 0, 2},
		{"a  b", 1, 3},
		{"a", 5, 5}, // past the end: returned as is
	} {
		if got := SkipSpace([]byte(tc.in), tc.from); got != tc.want {
			t.Errorf("SkipSpace(%q, %d) = %d, want %d", tc.in, tc.from, got, tc.want)
		}
	}
}

func TestSkipString(t *testing.T) {
	for _, tc := range []struct {
		in   string
		from int
		want int // index after the closing quote; -1 = error
	}{
		{`""`, 0, 2},
		{`"abc"`, 0, 5},
		{`"abc" tail`, 0, 5},
		{`x"abc"`, 1, 6},
		{`"a\"b"`, 0, 6},   // escaped quote does not close
		{`"a\\"`, 0, 5},    // escaped backslash, then the closing quote
		{`"a\\\"b"`, 0, 8}, // escaped backslash, escaped quote
		{`"brackets ]}["`, 0, 14},
		{`"\u0022"`, 0, 8}, // a quote escaped by code point does not close
		{`"日本語"`, 0, 11},
		{`"abc`, 0, -1},   // truncated
		{`"abc\`, 0, -1},  // trailing backslash
		{`"abc\"`, 0, -1}, // the only quote is escaped
		{`"`, 0, -1},
	} {
		got, err := SkipString([]byte(tc.in), tc.from)
		if tc.want < 0 {
			if err == nil {
				t.Errorf("SkipString(%q, %d) = %d, want an error", tc.in, tc.from, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("SkipString(%q, %d) = %d, %v, want %d", tc.in, tc.from, got, err, tc.want)
		}
	}
}

func TestSkipValue(t *testing.T) {
	for _, tc := range []struct {
		in   string
		from int
		want int // index after the value; -1 = error
	}{
		{`1`, 0, 1},
		{`12.5e-3,`, 0, 7},
		{`  true]`, 0, 6},
		{`null}`, 0, 4},
		{`-1 ,`, 0, 2},
		{`"a,b]"x`, 0, 6},
		{`{}`, 0, 2},
		{`[]`, 0, 2},
		{`{"a":[1,{"b":"}]"}],"c":{}} tail`, 0, 27}, // nesting, brackets inside a string
		{`[[[]]]`, 0, 6},
		{`[[[]]]`, 1, 5},
		{`["a\"]"]`, 0, 8}, // escaped quote inside an element
		{`["a\\"]`, 0, 7},  // escaped backslash before the closing quote
		{`x[1]`, 1, 4},
		{``, 0, -1},    // nothing
		{`   `, 0, -1}, // only space
		{`,1`, 0, -1},  // a delimiter where a value must start
		{`}`, 0, -1},
		{`]`, 0, -1},
		{`[1,2`, 0, -1},     // truncated array
		{`{"a":1`, 0, -1},   // truncated object
		{`{"a":"x}`, 0, -1}, // truncated string inside
		{`["a\"]`, 0, -1},   // the string swallows the bracket
		{`[[]`, 0, -1},
	} {
		got, err := SkipValue([]byte(tc.in), tc.from)
		if tc.want < 0 {
			if err == nil {
				t.Errorf("SkipValue(%q, %d) = %d, want an error", tc.in, tc.from, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("SkipValue(%q, %d) = %d, %v, want %d", tc.in, tc.from, got, err, tc.want)
		}
	}
}

func TestNext(t *testing.T) {
	for _, tc := range []struct {
		in    string
		from  int
		first bool
		at    int // -1: done, -2: error
		past  int // with done: the index past the closer
	}{
		{in: `[1]`, from: 1, first: true, at: 1},
		{in: `[ 1]`, from: 1, first: true, at: 2},
		{in: `[]`, from: 1, first: true, at: -1, past: 2},
		{in: `[ ] `, from: 1, first: true, at: -1, past: 3},
		{in: `[1 , 2]`, from: 2, at: 5},
		{in: `[1]`, from: 2, at: -1, past: 3},
		{in: `{"a":1}`, from: 6, at: -1, past: 7},
		{in: `[,1]`, from: 1, first: true, at: -2},
		{in: `[1,]`, from: 2, at: -2},
		{in: `[1,,2]`, from: 2, at: -2},
		{in: `[1 2]`, from: 2, at: -2},
		{in: `[1}`, from: 2, at: -2}, // the other bracket is not the closer
		{in: `[1,`, from: 2, at: -2},
		{in: `[1`, from: 2, at: -2},
		{in: `[`, from: 1, first: true, at: -2},
	} {
		at, done, err := Next([]byte(tc.in), tc.from, tc.in[0]+2, tc.first) // '[' + 2 == ']', '{' + 2 == '}'
		switch {
		case tc.at == -2:
			if err == nil {
				t.Errorf("Next(%q, %d, first=%v) = %d, %v, want an error", tc.in, tc.from, tc.first, at, done)
			}
		case err != nil:
			t.Errorf("Next(%q, %d, first=%v): %v", tc.in, tc.from, tc.first, err)
		case tc.at == -1:
			if !done || at != tc.past {
				t.Errorf("Next(%q, %d, first=%v) = %d, %v, want done past %d", tc.in, tc.from, tc.first, at, done, tc.past)
			}
		case done || at != tc.at:
			t.Errorf("Next(%q, %d, first=%v) = %d, %v, want a member at %d", tc.in, tc.from, tc.first, at, done, tc.at)
		}
	}
}

func TestFindKey(t *testing.T) {
	const (
		absent = -1
		fails  = -2
	)
	for _, tc := range []struct {
		in, key string
		want    string // the value found, as text; see absent/fails below
		code    int
	}{
		{in: `{"requests":[1,2]}`, key: "requests", want: `[1,2]`},
		{in: ` { "a" : 1 , "requests" : [ ] }`, key: "requests", want: `[ ]`},
		{in: `{"a":{"requests":"inner"},"requests":"outer"}`, key: "requests", want: `"outer"`}, // top level only
		{in: `{"a":"requests","requests":7}`, key: "requests", want: `7`},                       // a value that looks like the key
		{in: `{"a\"":1,"b":"}\"","context":["x"]}`, key: "context", want: `["x"]`},              // escaped quotes on the way
		{in: `{"requests":1,"requests":2}`, key: "requests", want: `1`},                         // first match wins
		{in: `{"request":1,"requestss":2}`, key: "requests", code: absent},
		{in: `{"\u0072equests":1}`, key: "requests", code: absent}, // escaped keys never match
		{in: `{}`, key: "requests", code: absent},
		{in: `{"a":1}`, key: "", code: absent},
		{in: `{"":5}`, key: "", want: `5`},
		{in: ``, key: "requests", code: fails},
		{in: `[1]`, key: "requests", code: fails},             // not an object
		{in: `{"a":1`, key: "requests", code: fails},          // truncated after a value
		{in: `{"a"`, key: "requests", code: fails},            // truncated before the colon
		{in: `{"a" 1}`, key: "requests", code: fails},         // missing colon
		{in: `{"a":}`, key: "requests", code: fails},          // missing value
		{in: `{"a":[1,2}`, key: "requests", code: fails},      // unbalanced value on the way
		{in: `{"a\`, key: "requests", code: fails},            // trailing backslash in a key
		{in: `{a:1}`, key: "a", code: fails},                  // bare key
		{in: `{,"requests":1}`, key: "requests", code: fails}, // commas separate members, nothing else
		{in: `{"a":1,,"requests":1}`, key: "requests", code: fails},
		{in: `{"a":1 "requests":1}`, key: "requests", code: fails},
		{in: `{"a":1,}`, key: "requests", code: fails},
		{in: `{"requests":`, key: "requests", want: ``}, // found; the caller meets the truncation
	} {
		b := []byte(tc.in)
		at, err := FindKey(b, 0, tc.key)
		switch tc.code {
		case fails:
			if err == nil {
				t.Errorf("FindKey(%q, %q) = %d, want an error", tc.in, tc.key, at)
			}
		case absent:
			if err != nil || at != -1 {
				t.Errorf("FindKey(%q, %q) = %d, %v, want -1", tc.in, tc.key, at, err)
			}
		default:
			if err != nil || at < 0 {
				t.Errorf("FindKey(%q, %q) = %d, %v, want the value %q", tc.in, tc.key, at, err, tc.want)
				continue
			}
			end := len(b)
			if tc.want != "" {
				if end, err = SkipValue(b, at); err != nil {
					t.Errorf("FindKey(%q, %q): value at %d does not scan: %v", tc.in, tc.key, at, err)
					continue
				}
			}
			if got := string(b[at:end]); got != tc.want {
				t.Errorf("FindKey(%q, %q) found %q, want %q", tc.in, tc.key, got, tc.want)
			}
		}
	}
}

// spanTexts renders spans as the text they cover.
func spanTexts(b []byte, spans [][2]int) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = string(b[sp[0]:sp[1]])
	}
	return out
}

func TestAppendArraySpans(t *testing.T) {
	for _, tc := range []struct {
		in   string
		from int
		want []string // nil = error
	}{
		{in: `[]`, want: []string{}},
		{in: ` [ ] `, want: []string{}},
		{in: `[1]`, want: []string{`1`}},
		{in: `[1, "a]" ,{"x":[1,2]} , [ ] ,null]`, want: []string{`1`, `"a]"`, `{"x":[1,2]}`, `[ ]`, `null`}},
		{in: `[{"context":["a\"b","c\\"]},{"context":[]}]`, want: []string{`{"context":["a\"b","c\\"]}`, `{"context":[]}`}},
		{in: `{"requests":[ {"n":1} ]}`, from: 12, want: []string{`{"n":1}`}},
		{in: `[[1,[2]],[[3]]]`, want: []string{`[1,[2]]`, `[[3]]`}},
		{in: ``},
		{in: `{"a":1}`},  // not an array
		{in: `[1,2`},     // truncated between elements
		{in: `[1,`},      // truncated after a comma
		{in: `[`},        // truncated at once
		{in: `["a`},      // truncated string
		{in: `["a\`},     // trailing backslash
		{in: `[{"a":1]`}, // the element never balances
		{in: `[}]`},      // a delimiter where an element must start
		{in: `[1,}]`},
		{in: `[,1]`}, // commas separate elements, nothing else
		{in: `[1,]`},
		{in: `[1,,2]`},
		{in: `[1 2]`},
		{in: `["a""b"]`},
		{in: `[,]`},
	} {
		b := []byte(tc.in)
		prefix := [][2]int{{-7, -7}} // appended to, not overwritten
		got, err := AppendArraySpans(prefix, b, tc.from)
		if tc.want == nil {
			if err == nil {
				t.Errorf("AppendArraySpans(%q) = %v, want an error", tc.in, spanTexts(b, got[1:]))
			}
			continue
		}
		if err != nil {
			t.Errorf("AppendArraySpans(%q): %v", tc.in, err)
			continue
		}
		if got[0] != prefix[0] {
			t.Errorf("AppendArraySpans(%q) overwrote dst: %v", tc.in, got)
		}
		if texts := spanTexts(b, got[1:]); strings.Join(texts, "\x00") != strings.Join(tc.want, "\x00") {
			t.Errorf("AppendArraySpans(%q) = %q, want %q", tc.in, texts, tc.want)
		}
	}
}

func TestAppendUnescaped(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{``, ""},
		{`plain`, "plain"},
		{`a\"b`, `a"b`},
		{`a\\b`, `a\b`},
		{`a\/b`, "a/b"},
		{`\b\f\n\r\t`, "\b\f\n\r\t"},
		{`\u0041\u00e9\u65e5`, "Aé日"},
		{`\u0000`, "\x00"},
		{`\ud83d\ude00`, "😀"},        // surrogate pair
		{`\uD83D\uDE00`, "😀"},        // upper-case hex
		{`\ud83d`, "�"},              // lone high surrogate
		{`\ude00`, "�"},              // lone low surrogate
		{`\ud83dx`, "�x"},            // high surrogate, then a plain byte
		{`\ud83d\u0041`, "�A"},       // high surrogate, then a non-surrogate escape
		{`\ud83d\ud83d\ude00`, "�😀"}, // the second high surrogate pairs up
		{`日本語 héllo`, "日本語 héllo"},
		{`tail\`, `tail\`},  // trailing backslash: kept
		{`\q`, "q"},         // unknown escape: the literal byte
		{`\u12`, "�12"},     // truncated escape
		{`\uzzzz`, "�zzzz"}, // non-hex escape
		{`\ud83d\u12`, "��12"},
		// Where the bulk copies between escapes start and stop.
		{`\nlead`, "\nlead"},   // escape at byte 0
		{`trail\t`, "trail\t"}, // escape ending at the last byte
		{`no escapes at all`, "no escapes at all"},
		{`\"\\\/\b\f\n\r\t`, "\"\\/\b\f\n\r\t"}, // escapes only
		{`\\`, `\`},
	} {
		prefix := []byte("dst:")
		got := AppendUnescaped(prefix, []byte(tc.in))
		if string(got) != "dst:"+tc.want {
			t.Errorf("AppendUnescaped(%q) = %q, want %q", tc.in, got[len(prefix):], tc.want)
		}
	}
}

// jsonStringBodies are JSON string bodies (the text between the quotes) in
// encoding/json's language; stdlibUnescape is the oracle for them.
var jsonStringBodies = []string{
	``, `plain`, `a\"b\\c\/d`, `\b\f\n\r\t`, `\u0041\u00e9\u65e5\u0000`, `\ud83d\ude00`, `\ud83d`, `\ude00 tail`,
	`\ud83d\u0041`, `\ud83d\ud83d\ude00`, `日本語`, `mixed é \u00e9 \\u00e9`, `{\"not\":\"parsed\"}`, `[1,2]`, `  spaced  `,
	// An escape at byte 0, one ending at the last byte, none, nothing but escapes.
	`\nlead`, `trail\t`, `no escapes at all`, `\"\\\/\b\f\n\r\t`, `\\`,
}

// stdlibUnescape decodes the JSON string with body tok using encoding/json,
// reporting false when tok is not a valid string body.
func stdlibUnescape(tok []byte) (string, bool) {
	var s string
	if err := json.Unmarshal([]byte(`"`+string(tok)+`"`), &s); err != nil {
		return "", false
	}
	return s, true
}

// checkUnescaped is the differential property: on every valid, valid-UTF-8
// string body AppendUnescaped agrees with encoding/json (which replaces
// invalid UTF-8, where AppendUnescaped passes the bytes through); on anything
// else it must merely return, extending dst.
func checkUnescaped(t *testing.T, tok []byte) {
	t.Helper()
	prefix := []byte{0xAA}
	got := AppendUnescaped(prefix, tok)
	if len(got) < 1 || got[0] != 0xAA {
		t.Fatalf("AppendUnescaped(%q) rewrote dst: %q", tok, got)
	}
	if want, ok := stdlibUnescape(tok); ok && utf8.Valid(tok) && string(got[1:]) != want {
		t.Fatalf("AppendUnescaped(%q) = %q, encoding/json %q", tok, got[1:], want)
	}
}

func TestAppendUnescapedMatchesStdlib(t *testing.T) {
	for _, body := range jsonStringBodies {
		if _, ok := stdlibUnescape([]byte(body)); !ok {
			t.Fatalf("corpus entry %q is not a JSON string body", body)
		}
		checkUnescaped(t, []byte(body))
	}
	// Every escape of every byte value, through the stdlib encoder and back.
	for c := 0; c < 0x250; c++ {
		enc, err := json.Marshal(string(rune(c)) + "|" + string(rune(0x10000+c)))
		if err != nil {
			t.Fatal(err)
		}
		checkUnescaped(t, enc[1:len(enc)-1])
	}
}

func FuzzAppendUnescaped(f *testing.F) {
	for _, body := range jsonStringBodies {
		f.Add([]byte(body))
	}
	for _, broken := range []string{`tail\`, `\q`, `\u12`, `\uzzzz`, `\ud83d\u12`, `\ud83d\`, "raw\x01control", "bad utf8 \xff\xfe", `\u`, `\ud800\udbff`} {
		f.Add([]byte(broken))
	}
	f.Fuzz(func(t *testing.T, tok []byte) { checkUnescaped(t, tok) })
}

// jsonArrays are array documents in encoding/json's language.
var jsonArrays = []string{
	`[]`, ` [ ] `, `[1]`, `[1, "a]" ,{"x":[1,2]} , [ ] ,null]`, `[{"context":["a\"b","c\\"]},{"context":[]}]`,
	`[[1,[2]],[[3]]]`, `["]", "]", "\\"]`, "[\n\t1.5e3 ,\r\n true , false ]", `[{"a":{"b":{"c":[{}]}}}]`, `[""]`,
}

// checkArraySpans is the splitter's differential property. On a document
// encoding/json accepts as an array, the spans are exactly the raw elements
// it decodes. On anything else the splitter must return (it validates only
// bracket and quote balance), and whatever spans it reports must be in
// order, in bounds, non-empty and free of surrounding whitespace.
func checkArraySpans(t *testing.T, doc []byte) {
	t.Helper()
	spans, err := AppendArraySpans(nil, doc, 0)
	var want []json.RawMessage
	if json.Unmarshal(doc, &want) == nil && bytes.HasPrefix(bytes.TrimSpace(doc), []byte("[")) {
		if err != nil {
			t.Fatalf("AppendArraySpans(%q): %v; encoding/json reads %d elements", doc, err, len(want))
		}
		if len(spans) != len(want) {
			t.Fatalf("AppendArraySpans(%q) = %q, encoding/json reads %q", doc, spanTexts(doc, spans), want)
		}
		for i, sp := range spans {
			if !bytes.Equal(doc[sp[0]:sp[1]], bytes.Trim(want[i], " \t\r\n")) {
				t.Fatalf("AppendArraySpans(%q)[%d] = %q, encoding/json reads %q", doc, i, doc[sp[0]:sp[1]], want[i])
			}
		}
	}
	if err != nil {
		return
	}
	at := 0
	for i, sp := range spans {
		if sp[0] < at || sp[1] <= sp[0] || sp[1] > len(doc) {
			t.Fatalf("AppendArraySpans(%q): span %d = %v is empty, out of order or out of bounds", doc, i, sp)
		}
		if el := doc[sp[0]:sp[1]]; len(bytes.Trim(el, " \t\r\n")) != len(el) {
			t.Fatalf("AppendArraySpans(%q): span %d = %q is not trimmed", doc, i, el)
		}
		at = sp[1]
	}
}

func TestAppendArraySpansMatchesStdlib(t *testing.T) {
	for _, doc := range jsonArrays {
		if !json.Valid([]byte(doc)) {
			t.Fatalf("corpus entry %q is not valid JSON", doc)
		}
		checkArraySpans(t, []byte(doc))
	}
}

func FuzzAppendArraySpans(f *testing.F) {
	for _, doc := range jsonArrays {
		f.Add([]byte(doc))
	}
	for _, broken := range []string{``, `[`, `[1,2`, `[1,`, `["a`, `["a\`, `[{"a":1]`, `[}]`, `[1,}]`, `{"a":1}`, `[1 2]`, `[1,,2]`, `[[]`, "[\x00]", "[\f]", `]`} {
		f.Add([]byte(broken))
	}
	f.Fuzz(func(t *testing.T, doc []byte) { checkArraySpans(t, doc) })
}
