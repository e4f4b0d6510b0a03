package tracestore

import (
	"context"
	"fmt"
)

// Resolver turns a trace digest into the Trace jobs run on: its replay
// events, shared read-only, and their compression memo. The local Store is
// one; the server composes it with a coordinator-fetch fallback so a
// backend can resolve digests it has never seen.
type Resolver interface {
	Resolve(ctx context.Context, digest string) (Trace, error)
}

// Resolve implements Resolver on the local store.
func (s *Store) Resolve(_ context.Context, digest string) (Trace, error) {
	return s.Replay(digest)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(ctx context.Context, digest string) (Trace, error)

// Resolve implements Resolver.
func (f ResolverFunc) Resolve(ctx context.Context, digest string) (Trace, error) {
	return f(ctx, digest)
}

// resolverKey carries the Resolver through a job's context: job execution
// is deliberately stateless (ExecuteLocal), so the trace subsystem rides
// the context instead of a package global.
type resolverKey struct{}

// WithResolver attaches a resolver to ctx for trace-driven jobs.
func WithResolver(ctx context.Context, r Resolver) context.Context {
	return context.WithValue(ctx, resolverKey{}, r)
}

// ResolveFrom resolves a digest using the context's resolver. It fails
// with a clear error when no resolver was attached — a trace-driven job
// reached an execution path with no trace subsystem.
func ResolveFrom(ctx context.Context, digest string) (Trace, error) {
	r, ok := ctx.Value(resolverKey{}).(Resolver)
	if !ok {
		return Trace{}, fmt.Errorf("tracestore: no trace resolver in this execution context")
	}
	return r.Resolve(ctx, digest)
}
