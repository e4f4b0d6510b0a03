package fleetobs

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestParseSLOs(t *testing.T) {
	objs, err := ParseSLOs("jobs:p95<2s,err<1%;http:p99<500ms")
	if err != nil {
		t.Fatalf("ParseSLOs: %v", err)
	}
	if len(objs) != 3 {
		t.Fatalf("got %d objectives, want 3", len(objs))
	}
	if o := objs[0]; o.Name != "jobs:p95<2s" || o.Subject != "jobs" || o.Quantile != 0.95 || o.Target != 2 || o.ErrRate {
		t.Fatalf("objs[0] = %+v", o)
	}
	if o := objs[1]; o.Name != "jobs:err<1%" || !o.ErrRate || math.Abs(o.Target-0.01) > 1e-12 {
		t.Fatalf("objs[1] = %+v", o)
	}
	if o := objs[2]; o.Subject != "http" || o.Quantile != 0.99 || o.Target != 0.5 {
		t.Fatalf("objs[2] = %+v", o)
	}
}

func TestParseSLOsFractionTarget(t *testing.T) {
	objs, err := ParseSLOs("http:err<0.05")
	if err != nil || len(objs) != 1 || math.Abs(objs[0].Target-0.05) > 1e-12 {
		t.Fatalf("objs=%+v err=%v", objs, err)
	}
}

func TestParseSLOsErrors(t *testing.T) {
	cases := []struct{ spec, wantErr string }{
		{"p95<2s", "want \"jobs:...\""},
		{"db:p95<2s", "want \"jobs:...\""},
		{"jobs:p95=2s", "want metric<target"},
		{"jobs:p0<2s", "bad quantile"},
		{"jobs:p100<2s", "bad quantile"},
		{"jobs:pNaN<2s", "bad quantile"},
		{"jobs:p95<fast", "bad latency target"},
		{"jobs:p95<-2s", "bad latency target"},
		{"jobs:err<0%", "must be in"},
		{"jobs:err<150%", "must be in"},
		{"jobs:err<NaN%", "must be in"},
		{"jobs:err<lots", "bad error-rate target"},
		{"jobs:q95<2s", "unknown metric"},
		{"jobs:p95<2s;jobs:p95<2s", "duplicate"},
		{"jobs:", "contains no objectives"},
	}
	for _, tc := range cases {
		if _, err := ParseSLOs(tc.spec); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseSLOs(%q) error = %v, want containing %q", tc.spec, err, tc.wantErr)
		}
	}
	if objs, err := ParseSLOs(""); err != nil || objs != nil {
		t.Fatalf("empty spec should parse to nil, got %v, %v", objs, err)
	}
}

// FuzzParseSLOs feeds ParseSLOs arbitrary -slo flag values. It must never
// panic. Every objective it accepts must be in range: a latency objective
// has a quantile in (0, 1) and a finite positive target in seconds, an
// error-rate objective a target fraction in (0, 1). Its canonical Name
// must parse back to the same objective.
func FuzzParseSLOs(f *testing.F) {
	for _, s := range []string{
		"jobs:p95<2s,err<1%;http:p99<500ms", "http:err<0.05", "jobs:p99.9<1ms",
		"jobs:p0<2s", "jobs:p100<2s", "jobs:p95<-2s", "jobs:err<0%", "jobs:err<150%",
		"jobs:p95<2s;jobs:p95<2s", "jobs:", ";;", "jobs:pNaN<1s", "jobs:err<NaN%",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		objs, err := ParseSLOs(spec)
		if err != nil {
			return
		}
		for _, o := range objs {
			if o.Subject != "jobs" && o.Subject != "http" {
				t.Fatalf("ParseSLOs(%q): objective %+v has subject %q", spec, o, o.Subject)
			}
			if o.ErrRate {
				if !(o.Target > 0 && o.Target < 1) || o.Quantile != 0 {
					t.Fatalf("ParseSLOs(%q): error-rate objective out of range: %+v", spec, o)
				}
			} else if !(o.Quantile > 0 && o.Quantile < 1) || !(o.Target > 0) || math.IsInf(o.Target, 0) {
				t.Fatalf("ParseSLOs(%q): latency objective out of range: %+v", spec, o)
			}
			again, err := ParseSLOs(o.Name)
			if err != nil || len(again) != 1 || again[0] != o {
				t.Fatalf("ParseSLOs(%q): objective %+v re-parses from its name as %+v, %v", spec, o, again, err)
			}
		}
	})
}

// agg builds a window aggregate with count observations all landing at
// latency seconds (single-bucket histogram).
func agg(count, latency float64) *fleetAgg {
	h := &Hist{
		UpperBounds: []float64{latency, math.Inf(1)},
		CumCounts:   []float64{count, count},
		Count:       count,
		Sum:         count * latency,
	}
	return &fleetAgg{span: 60, jobs: h, http: h, jobDone: count, httpTotal: count}
}

func TestObjectiveEvaluate(t *testing.T) {
	windows := []time.Duration{time.Minute, 5 * time.Minute}
	obj := mustSLO(t, "jobs:p95<1s")

	// Both windows over target -> breaching.
	st := obj.evaluate(windows, []*fleetAgg{agg(100, 2), agg(500, 2)})
	if !st.Breaching {
		t.Fatalf("want breaching, got %+v", st)
	}
	if len(st.Windows) != 2 || st.Windows[0].Burn <= 1 {
		t.Fatalf("windows = %+v", st.Windows)
	}

	// Short window recovered -> not breaching (multi-window guard).
	st = obj.evaluate(windows, []*fleetAgg{agg(100, 0.1), agg(500, 2)})
	if st.Breaching {
		t.Fatalf("short-window recovery should clear the breach: %+v", st)
	}

	// A window without samples cannot breach.
	st = obj.evaluate(windows, []*fleetAgg{nil, agg(500, 2)})
	if st.Breaching {
		t.Fatalf("empty window must block breaching: %+v", st)
	}

	// Error-rate objective.
	errObj := mustSLO(t, "jobs:err<10%")
	bad := &fleetAgg{jobDone: 5, jobFailed: 5}
	st = errObj.evaluate(windows, []*fleetAgg{bad, bad})
	if !st.Breaching || math.Abs(st.Windows[0].Value-0.5) > 1e-9 {
		t.Fatalf("error SLO eval = %+v", st)
	}
	good := &fleetAgg{jobDone: 99, jobFailed: 1}
	if st = errObj.evaluate(windows, []*fleetAgg{good, good}); st.Breaching {
		t.Fatalf("1%% errors should not breach a 10%% target: %+v", st)
	}
}

func mustSLO(t *testing.T, spec string) Objective {
	t.Helper()
	objs, err := ParseSLOs(spec)
	if err != nil || len(objs) != 1 {
		t.Fatalf("ParseSLOs(%q): %v", spec, err)
	}
	return objs[0]
}
