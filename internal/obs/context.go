package obs

import (
	"context"
	"time"
)

// Context keys. Zero-size struct values convert to interface without
// allocating, keeping the disabled lookup path at 0 allocs/op.
type (
	registryKey struct{}
	tracerKey   struct{}
	spanKey     struct{}
)

// NewContext installs a registry and a tracer into a context; either may
// be nil to install only the other. Instrumented layers below recover them
// with RegistryFrom and StartSpan, so observability threads through the
// same context that already carries cancellation.
func NewContext(ctx context.Context, reg *Registry, tr *Tracer) context.Context {
	if reg != nil {
		ctx = context.WithValue(ctx, registryKey{}, reg)
	}
	if tr != nil {
		ctx = context.WithValue(ctx, tracerKey{}, tr)
	}
	return ctx
}

// RegistryFrom returns the context's registry, or nil — and every method
// chained off a nil registry is a no-op, so call sites never branch.
func RegistryFrom(ctx context.Context) *Registry {
	r, _ := ctx.Value(registryKey{}).(*Registry)
	return r
}

// tracerFrom returns the context's tracer, or nil.
func tracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// StartSpan begins a phase span named name, parented under the context's
// current span when one exists, and returns the context carrying the new
// span. Without a tracer (and without a parent span) it returns the
// context unchanged and a nil span, whose End is free — instrumented code
// always writes
//
//	ctx, sp := obs.StartSpan(ctx, "offline.features")
//	defer sp.End()
//
// whether or not tracing is on.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	var tr *Tracer
	if parent != nil {
		tr = parent.tracer
	} else if tr = tracerFrom(ctx); tr == nil {
		return ctx, nil
	}
	now := time.Now()
	sp := &Span{
		tracer: tr,
		parent: parent,
		start:  now,
		data:   &SpanData{Name: name, Start: now},
	}
	return context.WithValue(ctx, spanKey{}, sp), sp
}
