package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"unicode/utf8"
)

// Pairs is a small set of string fields stored as alternating keys and
// values — an event's fields or a span's attributes. A flat slice holds a
// handful of pairs in one allocation, where a map spends buckets and
// headers on each; every retained timeline event and span carries one.
//
// The JSON form is the one a map[string]string would produce: an object
// with its keys sorted, where a repeated key keeps its last value.
type Pairs []string

// Get returns the value of key ("" when absent); a repeated key answers
// with its last value, as in the JSON form.
func (p Pairs) Get(key string) string {
	v := ""
	for i := 0; i+1 < len(p); i += 2 {
		if p[i] == key {
			v = p[i+1]
		}
	}
	return v
}

// set replaces key's value in place, or appends the pair. The slice grows
// by exactly one pair: spans carry two to five attributes and keep them
// for as long as the trace ring does.
func (p *Pairs) set(key, value string) {
	for i := 0; i+1 < len(*p); i += 2 {
		if (*p)[i] == key {
			(*p)[i+1] = value
			return
		}
	}
	*p = append(append(make(Pairs, 0, len(*p)+2), *p...), key, value)
}

// Sorted returns the pairs in JSON order: keys ascending, each once, with
// its last value. Pairs already in that order (the usual case) are
// returned as is, without allocating; a trailing unpaired key is dropped.
func (p Pairs) Sorted() Pairs {
	p = p[:len(p)&^1]
	canonical := true
	for i := 2; i < len(p); i += 2 {
		if p[i-2] >= p[i] {
			canonical = false
			break
		}
	}
	if canonical {
		return p
	}
	idx := make([]int, 0, len(p)/2)
	for i := 0; i < len(p); i += 2 {
		idx = append(idx, i)
	}
	// Stable, so among equal keys the last one written sorts last.
	sort.SliceStable(idx, func(a, b int) bool { return p[idx[a]] < p[idx[b]] })
	out := make(Pairs, 0, len(p))
	for n, i := range idx {
		if n+1 < len(idx) && p[idx[n+1]] == p[i] {
			continue
		}
		out = append(out, p[i], p[i+1])
	}
	return out
}

// MarshalJSON encodes the pairs as the equivalent map would encode.
func (p Pairs) MarshalJSON() ([]byte, error) {
	if p == nil {
		return []byte("null"), nil
	}
	s := p.Sorted()
	size := 2
	for _, str := range s {
		size += len(str) + 3
	}
	out := append(make([]byte, 0, size), '{')
	for i, str := range s {
		if i > 0 {
			out = append(out, ",:"[i%2]) // ':' after a key, ',' after a value
		}
		out = appendString(out, str)
	}
	return append(out, '}'), nil
}

// appendString appends str as a JSON string. One with nothing to escape is
// copied as it is; any other goes through encoding/json with HTML escaping
// off, which is how a map's strings reach the caller's encoder (it applies
// its own HTML setting to the whole result).
func appendString(out []byte, str string) []byte {
	for i := 0; i < len(str); i++ {
		if c := str[i]; c < 0x20 || c == '"' || c == '\\' || c >= utf8.RuneSelf {
			var buf bytes.Buffer
			enc := json.NewEncoder(&buf)
			enc.SetEscapeHTML(false)
			_ = enc.Encode(str) // encoding a string cannot fail
			return append(out, bytes.TrimSuffix(buf.Bytes(), []byte{'\n'})...)
		}
	}
	out = append(out, '"')
	out = append(out, str...)
	return append(out, '"')
}

// UnmarshalJSON decodes a JSON object (or null) into pairs in key order.
func (p *Pairs) UnmarshalJSON(data []byte) error {
	if plain, ok := parsePlain(data); ok {
		*p = plain.Sorted()
		return nil
	}
	var m map[string]string
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	if m == nil {
		*p = nil
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(Pairs, 0, 2*len(keys))
	for _, k := range keys {
		out = append(out, k, m[k])
	}
	*p = out
	return nil
}

// parsePlain reads a JSON object of strings that need no unescaping (no
// backslash, valid UTF-8), in document order; ok is false for anything
// else, which the caller decodes through encoding/json. The input has
// already been validated as JSON by the decoder that hands it over.
func parsePlain(data []byte) (out Pairs, ok bool) {
	i := 0
	next := func() byte { // the next non-space byte, 0 at the end
		for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
			i++
		}
		if i == len(data) {
			return 0
		}
		i++
		return data[i-1]
	}
	if next() != '{' {
		return nil, false
	}
	out = Pairs{}
	for c := next(); c != '}'; c = next() {
		if c == ',' {
			c = next()
		}
		if c != '"' {
			return nil, false
		}
		end := bytes.IndexByte(data[i:], '"')
		if end < 0 {
			return nil, false
		}
		str := data[i : i+end]
		if bytes.IndexByte(str, '\\') >= 0 || !utf8.Valid(str) {
			return nil, false
		}
		out = append(out, string(str))
		i += end + 1
		if len(out)%2 == 1 && next() != ':' {
			return nil, false
		}
	}
	return out, len(out)%2 == 0
}
