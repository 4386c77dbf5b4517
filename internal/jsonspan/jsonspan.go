// Package jsonspan owns the request grammar of the serving paths — the POST
// /suggest/batch body (AppendBatch) and the URL query string (Query) — and the
// error envelope that reports its refusals (AppendError). The single handler
// (internal/serve) and the shard router (internal/fleet) consume the same two
// walkers, so what one refuses, drops, hashes or serves, the other does too:
// ARCHITECTURE §9 states the rule, request.go implements it.
//
// Everything here is allocation-free: a document is taken apart into byte
// spans that are forwarded or echoed verbatim, and string tokens are unescaped
// into the caller's recycled buffers, where encoding/json's Unmarshal would
// allocate for every decoded item — the difference between a batch fan-out at
// ~1200 allocs and one that holds a two-digit gate.
//
// This file is the scanner underneath. Its primitives validate only what span
// extraction needs (bracket and quote balance, and the commas between the
// members they walk); the walkers in request.go validate the rest.
package jsonspan

import (
	"bytes"
	"fmt"
	"unicode/utf16"
	"unicode/utf8"
)

// SkipSpace advances past insignificant whitespace.
func SkipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// SkipString advances past the string whose opening quote is at b[i] and
// returns the index after the closing quote.
func SkipString(b []byte, i int) (int, error) {
	for j := i + 1; j < len(b); j++ {
		switch b[j] {
		case '\\':
			j++
		case '"':
			return j + 1, nil
		}
	}
	return 0, fmt.Errorf("unterminated string at offset %d", i)
}

// SkipValue advances past one JSON value starting at b[i] (whitespace
// allowed) and returns the index just after it. Containers are skipped by
// depth counting with string awareness; scalars by delimiter scan.
func SkipValue(b []byte, i int) (int, error) {
	i = SkipSpace(b, i)
	if i >= len(b) {
		return 0, fmt.Errorf("missing value at offset %d", i)
	}
	switch b[i] {
	case '"':
		return SkipString(b, i)
	case '{', '[':
		depth := 0
		for j := i; j < len(b); j++ {
			switch b[j] {
			case '"':
				end, err := SkipString(b, j)
				if err != nil {
					return 0, err
				}
				j = end - 1
			case '{', '[':
				depth++
			case '}', ']':
				depth--
				if depth == 0 {
					return j + 1, nil
				}
			}
		}
		return 0, fmt.Errorf("unbalanced value at offset %d", i)
	default:
		for j := i; j < len(b); j++ {
			switch b[j] {
			case ',', '}', ']', ' ', '\t', '\n', '\r':
				if j == i {
					// A delimiter where a value must start. Reporting an
					// empty value would let a caller that loops over values
					// (AppendArraySpans on `[}`) spin without advancing.
					return 0, fmt.Errorf("missing value at offset %d", i)
				}
				return j, nil
			}
		}
		return len(b), nil
	}
}

// Next steps a scan over the comma-separated members of the array or object
// that closer ends. i is just past the opening bracket (first) or just past a
// member (!first). It returns where the next member starts, or done and the
// index just past closer. The grammar is JSON's, member (',' member)*: a
// leading, doubled or trailing comma, or two members with nothing between
// them, is an error — callers echo and forward these bytes as JSON.
func Next(b []byte, i int, closer byte, first bool) (at int, done bool, err error) {
	i = SkipSpace(b, i)
	if i < len(b) && b[i] == closer {
		return i + 1, true, nil
	}
	if !first {
		if i >= len(b) || b[i] != ',' {
			return 0, false, fmt.Errorf("expected ',' or '%c' at offset %d", closer, i)
		}
		i = SkipSpace(b, i+1)
	}
	if i >= len(b) {
		return 0, false, fmt.Errorf("missing closing '%c'", closer)
	}
	if b[i] == ',' || b[i] == closer {
		return 0, false, fmt.Errorf("expected a value at offset %d", i)
	}
	return i, false, nil
}

// FindKey locates key's value inside the object whose '{' is at b[i] and
// returns the index where the value starts, or -1 when the object has no
// such top-level key. Keys with escapes cannot match (ours are plain ASCII).
//
// No serving path calls it any more (AppendBatch walks a body whole): it stays
// only because bench/replay.go does, and goes when that moves (ROADMAP,
// "Benchmark-PR-only work").
func FindKey(b []byte, i int, key string) (int, error) {
	i = SkipSpace(b, i)
	if i >= len(b) || b[i] != '{' {
		return -1, fmt.Errorf("expected object at offset %d", i)
	}
	i++
	for first := true; ; first = false {
		at, done, err := Next(b, i, '}', first)
		if err != nil {
			return -1, err
		}
		if done {
			return -1, nil
		}
		i = at
		if b[i] != '"' {
			return -1, fmt.Errorf("expected object key at offset %d", i)
		}
		end, err := SkipString(b, i)
		if err != nil {
			return -1, err
		}
		match := end-i == len(key)+2 && string(b[i+1:end-1]) == key
		i = SkipSpace(b, end)
		if i >= len(b) || b[i] != ':' {
			return -1, fmt.Errorf("expected ':' at offset %d", i)
		}
		i++
		if match {
			return SkipSpace(b, i), nil
		}
		if i, err = SkipValue(b, i); err != nil {
			return -1, err
		}
	}
}

// AppendArraySpans appends the [start, end) byte span of every top-level
// element of the array beginning at b[i] to dst and returns the extended
// slice. Spans are whitespace-trimmed and reference b — zero copies.
//
// Like FindKey it is kept for bench/replay.go alone (ROADMAP,
// "Benchmark-PR-only work").
func AppendArraySpans(dst [][2]int, b []byte, i int) ([][2]int, error) {
	i = SkipSpace(b, i)
	if i >= len(b) || b[i] != '[' {
		return nil, fmt.Errorf("expected array at offset %d", i)
	}
	i++
	for first := true; ; first = false {
		at, done, err := Next(b, i, ']', first)
		if err != nil {
			return nil, err
		}
		if done {
			return dst, nil
		}
		if i, err = SkipValue(b, at); err != nil {
			return nil, err
		}
		dst = append(dst, [2]int{at, i})
	}
}

// AppendUnescaped appends the unescaped bytes of a JSON string body (the
// token between, not including, its quotes) to dst. The bytes up to the next
// backslash go in one append, so an escape-free token is one IndexByte and
// one copy; escapes are decoded rune by rune (invalid escapes decode to
// U+FFFD, like encoding/json).
func AppendUnescaped(dst, tok []byte) []byte {
	for i := 0; i < len(tok); i++ {
		k := bytes.IndexByte(tok[i:], '\\')
		if k < 0 {
			return append(dst, tok[i:]...)
		}
		dst = append(dst, tok[i:i+k]...)
		i += k + 1
		if i >= len(tok) {
			return append(dst, '\\')
		}
		switch tok[i] {
		case '"', '\\', '/':
			dst = append(dst, tok[i])
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			r := utf8.RuneError
			if i+4 < len(tok) {
				if v, ok := unhex4(tok[i+1 : i+5]); ok {
					r = rune(v)
					i += 4
					if utf16.IsSurrogate(r) {
						r = utf8.RuneError
						if i+6 < len(tok) && tok[i+1] == '\\' && tok[i+2] == 'u' {
							if lo, ok := unhex4(tok[i+3 : i+7]); ok {
								if dec := utf16.DecodeRune(rune(v), rune(lo)); dec != utf8.RuneError {
									r = dec
									i += 6
								}
							}
						}
					}
				}
			}
			dst = utf8.AppendRune(dst, r)
		default:
			dst = append(dst, tok[i]) // invalid escape: keep the literal byte
		}
	}
	return dst
}

// unhex4 decodes the four hex digits b starts with.
func unhex4(b []byte) (uint16, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var v uint16
	for _, c := range b[:4] {
		d, ok := unhex(c)
		if !ok {
			return 0, false
		}
		v = v<<4 | uint16(d)
	}
	return v, true
}

// unhex decodes one hex digit, either case: the one hex decoder under JSON's
// \uXXXX and the query string's %XX.
func unhex(c byte) (byte, bool) {
	switch {
	case '0' <= c && c <= '9':
		return c - '0', true
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10, true
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10, true
	}
	return 0, false
}
