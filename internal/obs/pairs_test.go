package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// toMap is the map a list of alternating keys and values denotes: a
// repeated key keeps its last value, a trailing unpaired key is dropped.
func toMap(kv []string) map[string]string {
	m := make(map[string]string)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = kv[i+1]
	}
	return m
}

// TestPairsJSONMatchesMap pins the wire format: Pairs encodes byte for
// byte as the map[string]string it replaced, in both HTML-escaping modes,
// and decodes back to the same fields.
func TestPairsJSONMatchesMap(t *testing.T) {
	cases := [][]string{
		{"kind", "lifetime"},
		{"shard", "3", "seed", "7", "scheme", "comp=bdi+fpc,ecc=ecp6", "backend", "http://a"},
		{"k", "first", "a", "x", "k", "last"},
		{"html", "<a&b>", "quote", `"\`, "uni", "ü ", "odd"},
		{},
	}
	for _, kv := range cases {
		for _, escape := range []bool{true, false} {
			enc := func(v any) string {
				var buf bytes.Buffer
				e := json.NewEncoder(&buf)
				e.SetEscapeHTML(escape)
				if err := e.Encode(v); err != nil {
					t.Fatal(err)
				}
				return buf.String()
			}
			want := enc(Event{Type: "x", Fields: nil})
			if len(kv) >= 2 {
				want = enc(struct {
					Time   time.Time         `json:"time"`
					Type   string            `json:"type"`
					Msg    string            `json:"msg,omitempty"`
					Fields map[string]string `json:"fields,omitempty"`
				}{Type: "x", Fields: toMap(kv)})
			}
			tl := NewTimeline(0)
			tl.AddAt(time.Time{}, "x", "", kv...)
			if got := enc(tl.Events()[0]); got != want {
				t.Errorf("fields %q (escape %v):\n got %s\nwant %s", kv, escape, got, want)
			}
		}
		var p Pairs
		buf, _ := json.Marshal(toMap(kv))
		if err := json.Unmarshal(buf, &p); err != nil {
			t.Fatal(err)
		}
		for k, v := range toMap(kv) {
			if p.Get(k) != v {
				t.Errorf("decoded %q: Get(%q) = %q, want %q", buf, k, p.Get(k), v)
			}
		}
	}
}

// TestPairsDecodeMatchesMap pins that decoding gives the fields a
// map[string]string would hold, on the plain fast path and off it.
func TestPairsDecodeMatchesMap(t *testing.T) {
	for _, doc := range []string{
		`{"b":"2","a":"1"}`,
		"{ \"k\" : \"v\" ,\n\t\"j\":\"w\" }",
		`{"k":"first","k":"last"}`,
		`{"esc":"a\"b\\c\u00e9\n"}`,
		"{\"bad\":\"\xff\"}",
		`{"uni":"ü ☃"}`,
		`{}`,
		`null`,
	} {
		var want map[string]string
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatal(err)
		}
		var got Pairs
		if err := json.Unmarshal([]byte(doc), &got); err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		if (got == nil) != (want == nil) || len(got) != 2*len(want) {
			t.Errorf("%s: decoded %q, want %v", doc, got, want)
			continue
		}
		for k, v := range want {
			if got.Get(k) != v {
				t.Errorf("%s: Get(%q) = %q, want %q", doc, k, got.Get(k), v)
			}
		}
	}
}

// TestSetAttrReplaces pins that a repeated SetAttr keeps one pair with the
// newest value, and that an ended span ignores further writes.
func TestSetAttrReplaces(t *testing.T) {
	ctx := WithRing(context.Background(), NewRing(0))
	_, span := Start(ctx, "op")
	span.SetAttr("k", "1")
	span.SetAttr("j", "2")
	span.SetAttr("k", "3")
	d := span.Data()
	if len(d.Attrs) != 4 || d.Attrs.Get("k") != "3" || d.Attrs.Get("j") != "2" {
		t.Fatalf("attrs = %q, want k=3 j=2 once each", d.Attrs)
	}
	span.End()
	span.SetAttr("k", "late")
	span.SetError(context.Canceled)
	if d := span.Data(); d.Attrs.Get("k") != "3" || d.Error != "" {
		t.Fatalf("ended span changed: attrs %q, error %q", d.Attrs, d.Error)
	}
}

// TestSortedAllocsNothingWhenCanonical pins the common case: fields
// written in key order are encoded without a sorted copy.
func TestSortedAllocsNothingWhenCanonical(t *testing.T) {
	p := Pairs{"kind", "lifetime", "schemes", "baseline", "trace", "sha256:00"}
	if n := testing.AllocsPerRun(100, func() { _ = p.Sorted() }); n != 0 {
		t.Errorf("Sorted of canonical pairs: %v allocs, want 0", n)
	}
}

// TestTimelineKeepsTypeAndMessage pins that a timeline hands back every
// event's type and message as given, whichever form it stores them in.
func TestTimelineKeepsTypeAndMessage(t *testing.T) {
	cases := [][2]string{
		{"done", ""},
		{"merged", "shard results merged deterministically"},
		{"odd\x00type", ""},
		{"odd\x00type", "msg\x00with NUL"},
		{"", "message only"},
		{"", ""},
		{"\x0012\x00", "x"},
	}
	tl := NewTimeline(0)
	var want []Event
	for _, c := range cases {
		tl.AddAt(time.Unix(int64(len(want)), 0), c[0], c[1])
		want = append(want, Event{Time: time.Unix(int64(len(want)), 0), Type: c[0], Msg: c[1]})
	}
	restored := NewTimeline(0)
	restored.Restore(want)
	replay, sub := restored.SubscribeReplay(0, 0)
	restored.Unsubscribe(sub)
	for i, got := range [][]Event{tl.Events(), restored.Events()} {
		for j, ev := range got {
			if ev.Type != want[j].Type || ev.Msg != want[j].Msg || !ev.Time.Equal(want[j].Time) {
				t.Errorf("timeline %d event %d = %q/%q, want %q/%q", i, j, ev.Type, ev.Msg, want[j].Type, want[j].Msg)
			}
		}
	}
	for j, se := range replay {
		if se.Event.Type != want[j].Type || se.Event.Msg != want[j].Msg {
			t.Errorf("replayed event %d = %q/%q, want %q/%q", j, se.Event.Type, se.Event.Msg, want[j].Type, want[j].Msg)
		}
	}
}
