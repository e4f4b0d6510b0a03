package fleetobs

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Objective is one parsed service-level objective. Two kinds exist:
// latency quantile targets ("jobs:p95<2s") and error-rate targets
// ("http:err<1%"). Subject "jobs" measures the job-execution
// histograms/outcome counters; "http" measures the per-route request
// histograms and status codes.
type Objective struct {
	Name     string  `json:"name"`               // canonical spelling, e.g. "jobs:p95<2s"
	Subject  string  `json:"subject"`            // "jobs" or "http"
	Quantile float64 `json:"quantile,omitempty"` // 0.95 for p95; 0 for error-rate objectives
	ErrRate  bool    `json:"err_rate,omitempty"` // true for err<...% objectives
	Target   float64 `json:"target"`             // seconds (latency) or fraction (error rate)
}

// ParseSLOs parses the -slo flag grammar:
//
//	spec   = group *( ";" group )
//	group  = subject ":" obj *( "," obj )
//	subject= "jobs" | "http"
//	obj    = "p" NN "<" duration | "err" "<" percent
//
// e.g. "jobs:p95<2s,err<1%;http:p99<500ms". Percent targets accept a
// trailing "%" ("1%" → 0.01) or a bare fraction ("0.01").
func ParseSLOs(spec string) ([]Objective, error) {
	var out []Objective
	seen := make(map[string]bool)
	for _, group := range strings.Split(spec, ";") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		subject, rest, ok := strings.Cut(group, ":")
		subject = strings.TrimSpace(subject)
		if !ok || (subject != "jobs" && subject != "http") {
			return nil, fmt.Errorf("fleetobs: SLO group %q: want \"jobs:...\" or \"http:...\"", group)
		}
		for _, objSpec := range strings.Split(rest, ",") {
			objSpec = strings.TrimSpace(objSpec)
			if objSpec == "" {
				continue
			}
			obj, err := parseObjective(subject, objSpec)
			if err != nil {
				return nil, fmt.Errorf("fleetobs: SLO %q: %w", objSpec, err)
			}
			if seen[obj.Name] {
				return nil, fmt.Errorf("fleetobs: duplicate SLO %q", obj.Name)
			}
			seen[obj.Name] = true
			out = append(out, obj)
		}
	}
	if len(out) == 0 && strings.TrimSpace(spec) != "" {
		return nil, fmt.Errorf("fleetobs: SLO spec %q contains no objectives", spec)
	}
	return out, nil
}

func parseObjective(subject, spec string) (Objective, error) {
	lhs, rhs, ok := strings.Cut(spec, "<")
	if !ok {
		return Objective{}, fmt.Errorf("want metric<target")
	}
	lhs, rhs = strings.TrimSpace(lhs), strings.TrimSpace(rhs)
	obj := Objective{Subject: subject, Name: subject + ":" + lhs + "<" + rhs}
	switch {
	case lhs == "err":
		obj.ErrRate = true
		frac := rhs
		isPct := strings.HasSuffix(frac, "%")
		frac = strings.TrimSuffix(frac, "%")
		v, err := strconv.ParseFloat(frac, 64)
		if err != nil {
			return Objective{}, fmt.Errorf("bad error-rate target %q", rhs)
		}
		if isPct {
			v /= 100
		}
		if !(v > 0 && v < 1) { // also rejects NaN
			return Objective{}, fmt.Errorf("error-rate target %q must be in (0%%, 100%%)", rhs)
		}
		obj.Target = v
	case strings.HasPrefix(lhs, "p") && len(lhs) > 1:
		n, err := strconv.ParseFloat(lhs[1:], 64)
		if err != nil || !(n > 0 && n < 100) { // also rejects NaN
			return Objective{}, fmt.Errorf("bad quantile %q (want p50..p99.9)", lhs)
		}
		obj.Quantile = n / 100
		d, err := time.ParseDuration(rhs)
		if err != nil || d <= 0 {
			return Objective{}, fmt.Errorf("bad latency target %q (want a positive duration)", rhs)
		}
		obj.Target = d.Seconds()
	default:
		return Objective{}, fmt.Errorf("unknown metric %q (want pNN or err)", lhs)
	}
	return obj, nil
}

// WindowEval is one burn-rate window's verdict for an objective.
type WindowEval struct {
	Window  string  `json:"window"`
	Value   float64 `json:"value"`   // measured quantile seconds or error fraction
	Target  float64 `json:"target"`  // the objective's threshold
	Burn    float64 `json:"burn"`    // Value/Target; > 1 means the window is burning
	Samples float64 `json:"samples"` // observations behind Value in the window
}

// Burning reports whether this window has evidence of a breach: some
// traffic, and a burn rate over 1.
func (w WindowEval) Burning() bool { return w.Samples > 0 && w.Burn > 1 }

// SLOStatus is one objective's current multi-window evaluation. The
// objective breaches only when every window burns — the standard
// multi-window guard against paging on a blip (short window) or on
// long-stale history (long window).
type SLOStatus struct {
	Name      string       `json:"name"`
	Breaching bool         `json:"breaching"`
	Since     *time.Time   `json:"since,omitempty"`
	Windows   []WindowEval `json:"windows"`
}

// evaluate computes one objective's verdict from per-window fleet
// aggregates (ordered like cfg.Windows).
func (o Objective) evaluate(windows []time.Duration, aggs []*fleetAgg) SLOStatus {
	st := SLOStatus{Name: o.Name, Breaching: len(aggs) > 0}
	for i, agg := range aggs {
		we := WindowEval{Window: windows[i].String(), Target: o.Target}
		if agg != nil {
			we.Value, we.Samples = o.measure(agg)
		}
		if o.Target > 0 {
			we.Burn = we.Value / o.Target
		}
		st.Windows = append(st.Windows, we)
		if !we.Burning() {
			st.Breaching = false
		}
	}
	return st
}

// measure extracts the objective's value and sample count from one
// window's fleet aggregate.
func (o Objective) measure(agg *fleetAgg) (value, samples float64) {
	switch {
	case o.Subject == "jobs" && o.ErrRate:
		total := agg.jobDone + agg.jobFailed
		if total > 0 {
			return agg.jobFailed / total, total
		}
		return 0, 0
	case o.Subject == "jobs":
		if agg.jobs == nil {
			return 0, 0
		}
		return agg.jobs.Quantile(o.Quantile), agg.jobs.Count
	case o.ErrRate:
		if agg.httpTotal > 0 {
			return agg.httpErr / agg.httpTotal, agg.httpTotal
		}
		return 0, 0
	default:
		if agg.http == nil {
			return 0, 0
		}
		return agg.http.Quantile(o.Quantile), agg.http.Count
	}
}
