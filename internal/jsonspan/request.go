package jsonspan

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// The request grammar (ARCHITECTURE §9). A POST /suggest/batch body is
//
//	ws '{' ws '"requests"' ws ':' ws '[' item (',' item)* ']' ws '}' ws
//	item = '{' member (',' member)* '}'     members: "context", "n", each at most once
//	"context" : '[' string (',' string)* ']'  RFC 8259 strings
//	"n"       : -?(0|[1-9][0-9]*)             that fits an int
//
// with ws allowed between any two tokens, keys matched by their exact bytes,
// and nothing else (either array may be empty, and so may an item).
// AppendBatch is its one walker; the single handler and the shard router both
// consume it, so neither can accept, refuse or read an item differently from
// the other. What needs a handler option or is about the batch rather than its
// syntax — batch size, n's range, an empty context — is the consumer's to
// check.

// Item is one element of a batch body's "requests" array, as spans of the
// body.
type Item struct {
	Span    [2]int // the item object, from its '{' to just past its '}'
	Context [2]int // its "context" array, bracket to bracket; [0,0] without one
	// The context's strings are toks[TokLo:TokHi], each the span of a string's
	// body: the bytes between the quotes, escapes still in (AppendUnescaped).
	TokLo, TokHi int
	N            int // its "n"; 0 without one
}

// AppendBatch walks a batch body once and appends its items to items and their
// context strings' spans to toks. A body outside the grammar is an error and
// nothing of it is to be used: the walker has validated every byte of an item
// by the time a consumer sees it, and its context span is JSON as it stands.
func AppendBatch(items []Item, toks [][2]int, b []byte) ([]Item, [][2]int, error) {
	w := batchWalk{b: b, items: items, toks: toks}
	err := w.body()
	return w.items, w.toks, err
}

// batchWalk is one AppendBatch call's state.
type batchWalk struct {
	b     []byte
	items []Item
	toks  [][2]int
}

// body walks the whole body: the object, its one member, nothing after it.
func (w *batchWalk) body() error {
	b := w.b
	i := SkipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return errors.New("expected a JSON object")
	}
	i++
	seen := false
	for first := true; ; first = false {
		at, done, err := Next(b, i, '}', first)
		if err != nil {
			return err
		}
		if done {
			i = at
			break
		}
		key, v, err := memberKey(b, at)
		if err != nil {
			return err
		}
		if string(key) != "requests" {
			return fmt.Errorf("unknown field %q", key)
		}
		if seen {
			return errors.New(`duplicate field "requests"`)
		}
		seen = true
		if v >= len(b) || b[v] != '[' {
			return errors.New(`"requests" must be an array`)
		}
		i = v + 1
		for first := true; ; first = false {
			at, done, err := Next(b, i, ']', first)
			if err != nil {
				return fmt.Errorf("requests: %w", err)
			}
			if done {
				i = at
				break
			}
			if i, err = w.item(at); err != nil {
				return fmt.Errorf("requests[%d]: %w", len(w.items), err)
			}
		}
	}
	if !seen {
		return errors.New(`missing "requests" array`)
	}
	if i = SkipSpace(b, i); i < len(b) {
		return fmt.Errorf("unexpected data after the body object at offset %d", i)
	}
	return nil
}

// memberKey reads the object key at b[i] and the colon after it. It returns
// the key's bytes as sent and where the member's value starts.
func memberKey(b []byte, i int) (key []byte, value int, err error) {
	if b[i] != '"' {
		return nil, 0, fmt.Errorf("expected object key at offset %d", i)
	}
	end, err := SkipString(b, i)
	if err != nil {
		return nil, 0, err
	}
	colon := SkipSpace(b, end)
	if colon >= len(b) || b[colon] != ':' {
		return nil, 0, fmt.Errorf("expected ':' at offset %d", colon)
	}
	return b[i+1 : end-1], SkipSpace(b, colon+1), nil
}

// item walks the batch item that starts at b[i], appends it and returns the
// index just past it.
func (w *batchWalk) item(i int) (int, error) {
	b := w.b
	it := Item{Span: [2]int{i}, TokLo: len(w.toks), TokHi: len(w.toks)}
	if b[i] != '{' {
		return 0, errors.New("expected an object")
	}
	i++
	sawContext, sawN := false, false
	for first := true; ; first = false {
		at, done, err := Next(b, i, '}', first)
		if err != nil {
			return 0, err
		}
		if done {
			it.Span[1] = at
			w.items = append(w.items, it)
			return at, nil
		}
		key, v, err := memberKey(b, at)
		if err != nil {
			return 0, err
		}
		switch string(key) {
		case "context":
			if sawContext {
				return 0, errors.New(`duplicate field "context"`)
			}
			sawContext = true
			if i, err = w.context(v); err != nil {
				return 0, err
			}
			it.Context, it.TokHi = [2]int{v, i}, len(w.toks)
		case "n":
			if sawN {
				return 0, errors.New(`duplicate field "n"`)
			}
			sawN = true
			if it.N, i, err = walkInt(b, v); err != nil {
				return 0, err
			}
		default:
			return 0, fmt.Errorf("unknown field %q", key)
		}
	}
}

// context walks the context array that starts at b[i], appending the span of
// each string's body to toks, and returns the index just past the array. The
// array is echoed into the answer as it came, so it has to be JSON as it
// stands: a stray comma is refused (Next), and so is what RFC 8259 refuses
// inside a string (skipStrictString).
func (w *batchWalk) context(i int) (int, error) {
	b := w.b
	if i >= len(b) || b[i] != '[' {
		return 0, errors.New("context must be an array of strings")
	}
	i++
	for first := true; ; first = false {
		at, done, err := Next(b, i, ']', first)
		if err != nil {
			return 0, fmt.Errorf("context: %w", err)
		}
		if done {
			return at, nil
		}
		if b[at] != '"' {
			return 0, errors.New("context must be an array of strings")
		}
		if i, err = skipStrictString(b, at); err != nil {
			return 0, err
		}
		w.toks = append(w.toks, [2]int{at + 1, i - 1})
	}
}

// stringStop marks the bytes skipStrictString has to look at: the quote, the
// backslash and the control bytes a JSON string may not hold raw.
var stringStop = func() (t [256]bool) {
	for c := 0; c < 0x20; c++ {
		t[c] = true
	}
	t['"'], t['\\'] = true, true
	return t
}()

// skipStrictString is SkipString for a string that will be echoed: it advances
// past the string whose opening quote is at b[i], and in the same pass refuses
// what RFC 8259 refuses inside one — a raw control byte (a raw LF would break
// an NDJSON line in two), an escape that is none of JSON's.
func skipStrictString(b []byte, i int) (int, error) {
	for j := i + 1; j < len(b); j++ {
		c := b[j]
		if !stringStop[c] {
			continue
		}
		switch c {
		case '"':
			return j + 1, nil
		default:
			return 0, fmt.Errorf("control character in string at offset %d", j)
		case '\\':
			j++
			if j == len(b) {
				continue // off the end: unterminated
			}
			switch b[j] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if _, ok := unhex4(b[j+1:]); !ok {
					return 0, fmt.Errorf("invalid \\u escape in string at offset %d", j-1)
				}
				j += 4
			default:
				return 0, fmt.Errorf("invalid escape in string at offset %d", j-1)
			}
		}
	}
	return 0, fmt.Errorf("unterminated string at offset %d", i)
}

// walkInt reads the JSON integer at b[i], -?(0|[1-9][0-9]*) ended by
// whitespace or a delimiter, and returns it and the index just past it.
func walkInt(b []byte, i int) (v, next int, err error) {
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
		return 0, 0, errors.New("n must be an integer")
	}
	if v, err = strconv.Atoi(string(b[i:j])); err != nil { // out of int's range
		return 0, 0, errors.New("n must be an integer")
	}
	return v, j, nil
}

// Query is a raw URL query string — what follows the '?', as net/http hands it
// over in URL.RawQuery — being walked pair by pair the way url.ParseQuery
// reads it: pairs are cut at '&', key from value at the first '=', both
// percent-decoded with '+' a space, and a pair with an escape that does not
// decode, in either half, does not count. (One difference, on purpose: a raw
// ';' is a byte like any other — a query is what somebody typed — where
// url.ParseQuery drops the pair.) Everything that reads a request's query
// string walks it with this, so the handler that serves a context and the
// router that hashes it drop the same pairs and decode the same bytes.
type Query string

// Next cuts the next pair that counts off the string and returns its decoded
// key and value, or ok false once the string is walked. The value is decoded
// into buf, appending, and the grown buffer returned for the next call and for
// the caller to recycle; val is a view into it, and stays good when a later
// call grows it — a view keeps the array it was cut from, whose bytes are
// final. (The buffer is passed, not held, so that one on the caller's stack
// stays there.) The key is the query's own bytes, or — the rare key that holds
// an escape — a string of its own.
func (q *Query) Next(buf []byte) (key string, val, grown []byte, ok bool) {
	for *q != "" {
		pair := string(*q)
		if i := strings.IndexByte(pair, '&'); i >= 0 {
			pair, *q = pair[:i], (*q)[i+1:]
		} else {
			*q = ""
		}
		if pair == "" {
			continue
		}
		k, v := pair, ""
		if i := strings.IndexByte(pair, '='); i >= 0 {
			k, v = pair[:i], pair[i+1:]
		}
		mark := len(buf)
		if escaped(k) {
			if buf, ok = appendQueryUnescaped(buf, k); !ok {
				buf = buf[:mark]
				continue
			}
			k, buf = string(buf[mark:]), buf[:mark]
		}
		if buf, ok = appendQueryUnescaped(buf, v); ok {
			return k, buf[mark:len(buf):len(buf)], buf, true
		}
		buf = buf[:mark]
	}
	return "", nil, buf, false
}

// escaped reports whether decoding would change s.
func escaped(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '%' || s[i] == '+' {
			return true
		}
	}
	return false
}

// appendQueryUnescaped appends the query-component decoding of s to dst ('+'
// is a space, %XX a byte), reporting false for a truncated or non-hex escape.
// It is the one percent-decoder: whether a pair counts and what its bytes are
// is decided here, in one pass.
func appendQueryUnescaped(dst []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch c {
		case '+':
			c = ' '
		case '%':
			if i+2 >= len(s) {
				return dst, false
			}
			hi, okHi := unhex(s[i+1])
			lo, okLo := unhex(s[i+2])
			if !okHi || !okLo {
				return dst, false
			}
			c = hi<<4 | lo
			i += 2
		}
		dst = append(dst, c)
	}
	return dst, true
}

// AppendError appends the "error":{"code":…,"message":…} member of the error
// envelope every non-2xx answer carries, closing the object and the line
// around it: after a '{' it is the whole envelope, after `{"index":N,` a
// streamed batch's error line. It is the one encoder of both, so the single
// handler and the router refuse a body with the same bytes.
func AppendError(dst []byte, code, msg string) []byte {
	dst = append(dst, `"error":{"code":`...)
	dst = AppendString(dst, code)
	dst = append(dst, `,"message":`...)
	dst = AppendString(dst, msg)
	return append(dst, "}}\n"...)
}

// AppendString appends s — a string, or the raw bytes of one (the /suggest
// context echo never materialises strings) — as a JSON string literal.
// Quotes, backslashes and control characters are escaped; valid UTF-8 passes
// through verbatim. (Unlike encoding/json it does not HTML-escape <, >, & or
// sanitise invalid UTF-8 — both re-encode the same JSON value, and query
// strings are data, not markup.)
func AppendString[S ~string | ~[]byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '"' && c != '\\' && c >= 0x20 {
			continue
		}
		dst = append(dst, s[start:i]...)
		dst = appendEscapedByte(dst, c)
		start = i + 1
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

func appendEscapedByte(dst []byte, c byte) []byte {
	switch c {
	case '"':
		return append(dst, '\\', '"')
	case '\\':
		return append(dst, '\\', '\\')
	case '\n':
		return append(dst, '\\', 'n')
	case '\r':
		return append(dst, '\\', 'r')
	case '\t':
		return append(dst, '\\', 't')
	default:
		return append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
	}
}
