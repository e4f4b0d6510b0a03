// Package tenant is the multi-tenant front door's admission model: named
// tenants identified by API keys, each with a token-bucket submission
// quota and a fair-queueing weight, plus the deficit-round-robin queue
// the worker pool drains so no tenant can starve another.
//
// The registry is built from specs of the form
//
//	name:key[:rate[:burst[:weight]]]
//
// — comma-separated on a flag, or one per line in a file (# comments and
// blank lines ignored). rate is submissions per second (0 = unlimited),
// burst the bucket depth, weight the DRR share (>= 1). Requests without
// an X-Api-Key header map to the built-in anonymous tenant, so a
// single-user deployment keeps working with no keys configured.
package tenant

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// AnonymousName is the reserved name of the built-in tenant that
// requests without an API key resolve to.
const AnonymousName = "anonymous"

// Tenant is one admission principal: a name, its secret key, a DRR
// weight, and an optional token-bucket quota. Safe for concurrent use —
// the mutable state lives in the bucket.
type Tenant struct {
	// Name labels the tenant in metrics, logs, and job documents.
	Name string
	// Key is the X-Api-Key secret ("" only for the anonymous tenant).
	Key string
	// Weight is the tenant's deficit-round-robin share (>= 1): a tenant
	// with weight 2 drains twice as many queued jobs per round as one
	// with weight 1 when both have work.
	Weight int
	// bucket is the submission quota; nil means unlimited.
	bucket *Bucket
	// byteBucket is the trace-upload byte quota; nil means unlimited.
	// Separate from the submission bucket because the two protect
	// different resources: request admission vs. trace-store ingress.
	byteBucket *Bucket
}

// NewTenant builds a tenant. rate <= 0 disables the quota; burst <= 0
// defaults to max(1, rate); weight < 1 defaults to 1.
func NewTenant(name, key string, rate, burst float64, weight int) *Tenant {
	t := &Tenant{Name: name, Key: key, Weight: weight}
	if t.Weight < 1 {
		t.Weight = 1
	}
	if rate > 0 {
		if burst <= 0 {
			burst = rate
			if burst < 1 {
				burst = 1
			}
		}
		t.bucket = NewBucket(rate, burst)
	}
	return t
}

// Limited reports whether the tenant has a submission quota at all.
func (t *Tenant) Limited() bool { return t.bucket != nil }

// SetByteQuota installs a trace-upload byte quota: rate bytes per second
// refill with a burst-byte bucket depth. rate <= 0 removes the quota;
// burst <= 0 defaults to rate. Call during configuration, before the
// tenant serves requests — the bucket swap itself is not synchronized.
func (t *Tenant) SetByteQuota(rate, burst float64) {
	if rate <= 0 {
		t.byteBucket = nil
		return
	}
	if burst <= 0 {
		burst = rate
	}
	t.byteBucket = NewBucket(rate, burst)
}

// TakeBytes attempts to charge n uploaded bytes against the byte quota at
// time now. It reports whether the upload is admitted; when refused, the
// returned duration is how long until n bytes of budget will be available
// (the Retry-After hint). A tenant without a byte quota always admits.
func (t *Tenant) TakeBytes(now time.Time, n float64) (time.Duration, bool) {
	if t.byteBucket == nil {
		return 0, true
	}
	return t.byteBucket.Take(now, n)
}

// Take attempts to spend n quota tokens at time now. It reports whether
// the submission is admitted; when refused, the returned duration is how
// long until n tokens will be available (the Retry-After hint). An
// unlimited tenant always admits.
func (t *Tenant) Take(now time.Time, n float64) (time.Duration, bool) {
	if t.bucket == nil {
		return 0, true
	}
	return t.bucket.Take(now, n)
}

// Quota returns the tenant's configured rate and burst, and whether a
// quota exists at all — the batch handler refuses batches larger than
// the burst outright (they could never be admitted).
func (t *Tenant) Quota() (rate, burst float64, limited bool) {
	if t.bucket == nil {
		return 0, 0, false
	}
	return t.bucket.rate, t.bucket.burst, true
}

// ByteQuota returns the trace-upload byte quota's rate and burst, and
// whether one exists — an upload larger than the burst could never be
// admitted, so the handler refuses it outright instead of 429-looping.
func (t *Tenant) ByteQuota() (rate, burst float64, limited bool) {
	if t.byteBucket == nil {
		return 0, 0, false
	}
	return t.byteBucket.rate, t.byteBucket.burst, true
}

// TokenLevel returns the current bucket level for the quota gauge, and
// false for unlimited tenants.
func (t *Tenant) TokenLevel(now time.Time) (float64, bool) {
	if t.bucket == nil {
		return 0, false
	}
	return t.bucket.Level(now), true
}

// Registry resolves API keys to tenants. Immutable after construction,
// so lookups need no locking; the per-tenant buckets carry their own.
type Registry struct {
	byKey map[string]*Tenant
	names []string // sorted, for stable metrics iteration
	all   map[string]*Tenant
	anon  *Tenant
}

// NewRegistry builds a registry from the configured tenants plus the
// built-in anonymous tenant (anonRate <= 0 leaves it unlimited, so a
// keyless deployment behaves exactly as before multi-tenancy existed).
// Duplicate names or keys, empty fields, and use of the reserved
// anonymous name are errors.
func NewRegistry(tenants []*Tenant, anonRate, anonBurst float64) (*Registry, error) {
	r := &Registry{
		byKey: make(map[string]*Tenant, len(tenants)),
		all:   make(map[string]*Tenant, len(tenants)+1),
		anon:  NewTenant(AnonymousName, "", anonRate, anonBurst, 1),
	}
	r.all[AnonymousName] = r.anon
	for _, t := range tenants {
		switch {
		case t.Name == "":
			return nil, fmt.Errorf("tenant with key %q has no name", mask(t.Key))
		case t.Name == AnonymousName:
			return nil, fmt.Errorf("tenant name %q is reserved", AnonymousName)
		case t.Key == "":
			return nil, fmt.Errorf("tenant %q has no key", t.Name)
		}
		if _, dup := r.all[t.Name]; dup {
			return nil, fmt.Errorf("duplicate tenant name %q", t.Name)
		}
		if _, dup := r.byKey[t.Key]; dup {
			return nil, fmt.Errorf("duplicate API key %s", mask(t.Key))
		}
		r.byKey[t.Key] = t
		r.all[t.Name] = t
	}
	for name := range r.all {
		r.names = append(r.names, name)
	}
	sort.Strings(r.names)
	return r, nil
}

// Lookup resolves an X-Api-Key header value. An empty key maps to the
// anonymous tenant; an unknown key reports false (the caller's 401).
func (r *Registry) Lookup(key string) (*Tenant, bool) {
	if key == "" {
		return r.anon, true
	}
	t, ok := r.byKey[key]
	return t, ok
}

// Anonymous returns the built-in keyless tenant.
func (r *Registry) Anonymous() *Tenant { return r.anon }

// Tenants returns every tenant (including anonymous) sorted by name, for
// stable metrics rendering.
func (r *Registry) Tenants() []*Tenant {
	out := make([]*Tenant, 0, len(r.names))
	for _, name := range r.names {
		out = append(out, r.all[name])
	}
	return out
}

// mask hides most of a key in error messages (keys are secrets; errors
// end up in logs).
func mask(key string) string {
	if len(key) <= 4 {
		return "****"
	}
	return key[:2] + "****" + key[len(key)-2:]
}

// ParseSpec parses one name:key[:rate[:burst[:weight]]] spec.
func ParseSpec(spec string) (*Tenant, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 2 || len(parts) > 5 {
		return nil, fmt.Errorf("tenant spec %q: want name:key[:rate[:burst[:weight]]]", spec)
	}
	name, key := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
	if name == "" || key == "" {
		return nil, fmt.Errorf("tenant spec %q: name and key are required", spec)
	}
	var rate, burst float64
	weight := 1
	var (
		err error
		ok  bool
	)
	if len(parts) > 2 && parts[2] != "" {
		if rate, ok = parseQuota(parts[2]); !ok {
			return nil, fmt.Errorf("tenant %s: bad rate %q (want submissions/sec >= 0)", name, parts[2])
		}
	}
	if len(parts) > 3 && parts[3] != "" {
		if burst, ok = parseQuota(parts[3]); !ok {
			return nil, fmt.Errorf("tenant %s: bad burst %q", name, parts[3])
		}
	}
	if len(parts) > 4 && parts[4] != "" {
		if weight, err = strconv.Atoi(parts[4]); err != nil || weight < 1 {
			return nil, fmt.Errorf("tenant %s: bad weight %q (want integer >= 1)", name, parts[4])
		}
	}
	return NewTenant(name, key, rate, burst, weight), nil
}

// parseQuota parses a rate or burst field: a finite number >= 0. NaN and
// ±Inf parse as floats but are no quota: a NaN rate would silently lift
// the limit, and a NaN burst would refuse every submission.
func parseQuota(field string) (float64, bool) {
	v, err := strconv.ParseFloat(field, 64)
	return v, err == nil && v >= 0 && !math.IsInf(v, 0)
}

// ParseSpecs parses a comma-separated list of tenant specs (the inline
// -api-keys flag form).
func ParseSpecs(specs string) ([]*Tenant, error) {
	var out []*Tenant
	for _, spec := range strings.Split(specs, ",") {
		if spec = strings.TrimSpace(spec); spec == "" {
			continue
		}
		t, err := ParseSpec(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// LoadFile parses a keys file: one spec per line, blank lines and
// #-comments ignored.
func LoadFile(path string) ([]*Tenant, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("api keys: %w", err)
	}
	var out []*Tenant
	for i, line := range strings.Split(string(buf), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		t, err := ParseSpec(line)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, i+1, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// Load resolves the -api-keys flag value: "@path" (or any value without
// a colon) reads a keys file; anything else parses as inline specs.
func Load(value string) ([]*Tenant, error) {
	if value == "" {
		return nil, nil
	}
	if path, isFile := strings.CutPrefix(value, "@"); isFile {
		return LoadFile(path)
	}
	if !strings.Contains(value, ":") {
		return LoadFile(value)
	}
	return ParseSpecs(value)
}
