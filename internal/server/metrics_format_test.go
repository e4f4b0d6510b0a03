package server

import (
	"bufio"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"pcmcomp/internal/fleetobs"
)

// metricSample is one parsed exposition line: name, raw label block
// (including braces, "" when bare), and value.
type metricSample struct {
	name   string
	labels string
	value  float64
	line   int
}

// parseExposition splits Prometheus text-format output into TYPE
// declarations (in order of appearance) and samples.
func parseExposition(t *testing.T, body string) (types map[string]string, typeLine map[string]int, samples []metricSample) {
	t.Helper()
	types = map[string]string{}
	typeLine = map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(body))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("line %d: malformed TYPE line %q", lineNo, line)
			}
			name, kind := fields[2], fields[3]
			if _, dup := types[name]; dup {
				t.Errorf("line %d: duplicate # TYPE for %s", lineNo, name)
			}
			switch kind {
			case "counter", "gauge", "histogram", "summary", "untyped":
			default:
				t.Errorf("line %d: unknown metric type %q", lineNo, kind)
			}
			types[name] = kind
			typeLine[name] = lineNo
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		// Strip an OpenMetrics exemplar suffix (` # {labels} value`) so the
		// sample value parses; exemplar correctness is covered by the
		// fleetobs round-trip test.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		// Sample: name[{labels}] value
		rest := line
		name := rest
		labels := ""
		if i := strings.IndexByte(rest, '{'); i >= 0 {
			name = rest[:i]
			k := strings.LastIndexByte(rest, '}')
			if k < i {
				t.Fatalf("line %d: unbalanced label braces in %q", lineNo, line)
			}
			labels = rest[i : k+1]
			rest = rest[k+1:]
		} else {
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				t.Fatalf("line %d: malformed sample %q", lineNo, line)
			}
			name, rest = fields[0], fields[1]
		}
		valStr := strings.TrimSpace(rest)
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("line %d: bad sample value in %q: %v", lineNo, line, err)
		}
		samples = append(samples, metricSample{name: name, labels: labels, value: val, line: lineNo})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return types, typeLine, samples
}

// family maps a sample name to its declared family: exact match, or the
// histogram base name for _bucket/_sum/_count suffixes.
func family(types map[string]string, name string) (string, bool) {
	if _, ok := types[name]; ok {
		return name, true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && types[base] == "histogram" {
			return base, true
		}
	}
	return "", false
}

// labelValue extracts one label's value from a raw {k="v",...} block.
func labelValue(labels, key string) (string, bool) {
	i := strings.Index(labels, key+`="`)
	if i < 0 {
		return "", false
	}
	rest := labels[i+len(key)+2:]
	k := strings.IndexByte(rest, '"')
	if k < 0 {
		return "", false
	}
	return rest[:k], true
}

// TestMetricsExpositionConformance drives real traffic through the server
// and then checks /metrics against the Prometheus text-format contract:
// every sample's family is declared by a # TYPE line that precedes it, no
// series (name + label set) appears twice, and every histogram's buckets
// are cumulative, le-ascending, and +Inf-terminated with the _count
// matching the +Inf bucket.
func TestMetricsExpositionConformance(t *testing.T) {
	_, ts := newTestServer(t)

	// Traffic: a completed job, a cache hit, a 404, and a sweep, so the
	// per-route HTTP families, job families, and sweep families all emit.
	doc, code := submit(t, ts, "compression", `{"apps":["milc"],"scale":"quick","seed":7}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	pollDone(t, ts, doc["id"].(string))
	if _, code = submit(t, ts, "compression", `{"apps":["milc"],"scale":"quick","seed":7}`); code != http.StatusOK {
		t.Fatalf("cache-hit submit: %d", code)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/j999999-deadbeef"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	sw, code := postSweep(t, ts, `{"kind":"failure-probability","params":{"scheme":"ecp","window":16,"max_errors":8,"trials":2000},"seed_count":2}`)
	if code != http.StatusAccepted {
		t.Fatalf("sweep submit: %d", code)
	}
	pollSweep(t, ts, sw.ID)

	// A first scrape, discarded: the per-route counter for GET /metrics is
	// recorded when the handler returns, so only the second scrape can see
	// the route's own series. The server ends the response body only after
	// the handler (and its middleware) returned, so reading the body to EOF
	// orders that count before the second scrape renders.
	if warm, err := http.Get(ts.URL + "/metrics"); err != nil {
		t.Fatal(err)
	} else {
		_, err := io.Copy(io.Discard, warm.Body)
		warm.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	types, typeLine, samples := parseExposition(t, body)

	// Every sample maps to a family whose TYPE line came first.
	seen := map[string]bool{}
	for _, s := range samples {
		fam, ok := family(types, s.name)
		if !ok {
			t.Errorf("line %d: sample %s has no # TYPE declaration", s.line, s.name)
			continue
		}
		if typeLine[fam] > s.line {
			t.Errorf("line %d: sample %s precedes its # TYPE (line %d)", s.line, s.name, typeLine[fam])
		}
		series := s.name + s.labels
		if seen[series] {
			t.Errorf("line %d: duplicate series %s", s.line, series)
		}
		seen[series] = true
	}

	// Histogram buckets: per series (labels minus le), strictly ascending
	// le, non-decreasing cumulative values, +Inf last, _count == +Inf.
	type histState struct {
		lastLe    float64
		lastVal   float64
		infVal    float64
		seenInf   bool
		anyBucket bool
	}
	hists := map[string]*histState{}
	counts := map[string]float64{}
	for _, s := range samples {
		fam, ok := family(types, s.name)
		if !ok || types[fam] != "histogram" {
			continue
		}
		key := fam + "|" + stripLabel(s.labels, "le")
		switch {
		case strings.HasSuffix(s.name, "_bucket"):
			h := hists[key]
			if h == nil {
				h = &histState{lastLe: math.Inf(-1), lastVal: 0}
				hists[key] = h
			}
			leStr, ok := labelValue(s.labels, "le")
			if !ok {
				t.Errorf("line %d: histogram bucket without le label: %s%s", s.line, s.name, s.labels)
				continue
			}
			le := math.Inf(1)
			if leStr != "+Inf" {
				if le, err = strconv.ParseFloat(leStr, 64); err != nil {
					t.Errorf("line %d: bad le %q", s.line, leStr)
					continue
				}
			}
			if le <= h.lastLe {
				t.Errorf("line %d: bucket le %q not ascending for %s", s.line, leStr, key)
			}
			if s.value < h.lastVal {
				t.Errorf("line %d: bucket value %v < previous %v — not cumulative (%s)", s.line, s.value, h.lastVal, key)
			}
			h.lastLe, h.lastVal, h.anyBucket = le, s.value, true
			if math.IsInf(le, 1) {
				h.seenInf, h.infVal = true, s.value
			}
		case strings.HasSuffix(s.name, "_count"):
			counts[key] = s.value
		}
	}
	for key, h := range hists {
		if !h.anyBucket {
			continue
		}
		if !h.seenInf {
			t.Errorf("histogram %s has no +Inf bucket", key)
		}
		if c, ok := counts[key]; ok && c != h.infVal {
			t.Errorf("histogram %s: _count %v != +Inf bucket %v", key, c, h.infVal)
		}
	}

	// The build-info and runtime gauges from the observability work emit.
	for _, want := range []string{
		"pcmd_build_info", "pcmd_goroutines", "pcmd_uptime_seconds",
		"pcmd_http_requests_total", "pcmd_http_request_seconds",
	} {
		if _, ok := types[want]; !ok {
			t.Errorf("/metrics is missing family %s", want)
		}
	}
	if !strings.Contains(body, `pcmd_http_requests_total{route="GET /metrics"`) {
		t.Error("per-route HTTP counters missing the /metrics route itself")
	}
}

// TestMetricsFleetobsRoundTrip feeds the server's own /metrics output to
// the fleet health plane's parser — the exact pair deployed together —
// and checks the digested values match what the traffic produced: the
// job counter, the job-latency histogram (count, sum, +Inf termination),
// and the trace-ID exemplar the completed job stamped on it.
func TestMetricsFleetobsRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)

	doc, code := submit(t, ts, "compression", `{"apps":["milc"],"scale":"quick","seed":11}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	job := pollDone(t, ts, doc["id"].(string))
	traceID, _ := job["trace_id"].(string)
	if traceID == "" {
		t.Fatal("job document has no trace_id")
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	samples, err := fleetobs.ParseExposition(raw)
	if err != nil {
		t.Fatalf("fleetobs.ParseExposition rejected the server's own /metrics: %v", err)
	}
	if got := fleetobs.SumOf(samples, "pcmd_jobs_done_total", map[string]string{"kind": "compression"}); got != 1 {
		t.Errorf("parsed pcmd_jobs_done_total{kind=compression} = %v, want 1", got)
	}
	hists := fleetobs.HistogramsOf(samples, "pcmd_job_seconds")
	var compHist *fleetobs.Hist
	for _, lh := range hists {
		if lh.Labels["kind"] == "compression" {
			compHist = lh.Hist
		}
	}
	if compHist == nil {
		t.Fatal("no pcmd_job_seconds{kind=compression} histogram recovered")
	}
	if compHist.Count != 1 || compHist.Sum <= 0 {
		t.Errorf("recovered histogram count=%v sum=%v, want count 1 and positive sum", compHist.Count, compHist.Sum)
	}
	if n := len(compHist.CumCounts); n == 0 || compHist.CumCounts[n-1] != compHist.Count {
		t.Errorf("histogram buckets %v not terminated at count %v", compHist.CumCounts, compHist.Count)
	}
	if compHist.ExemplarTrace != traceID {
		t.Errorf("exemplar trace = %q, want the job's trace %q", compHist.ExemplarTrace, traceID)
	}
	if compHist.ExemplarValue <= 0 {
		t.Errorf("exemplar value = %v, want > 0", compHist.ExemplarValue)
	}
}

// stripLabel removes one label pair from a raw label block so histogram
// bucket series can be grouped by their non-le labels.
func stripLabel(labels, key string) string {
	i := strings.Index(labels, key+`="`)
	if i < 0 {
		return labels
	}
	rest := labels[i:]
	k := strings.Index(rest[len(key)+2:], `"`)
	if k < 0 {
		return labels
	}
	cut := labels[:i] + rest[len(key)+2+k+1:]
	cut = strings.ReplaceAll(cut, `{,`, `{`)
	cut = strings.ReplaceAll(cut, `,}`, `}`)
	cut = strings.ReplaceAll(cut, `,,`, `,`)
	return cut
}
