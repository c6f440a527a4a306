package trace

// Sink consumes a stream of path events in execution order. The
// interpreter emits through a Sink, and every WPP builder is one; any
// component that accepts events one at a time fits here.
type Sink interface {
	Add(Event)
}

// SinkFunc adapts a plain function to a Sink, for call sites that tee
// or filter events.
type SinkFunc func(Event)

// Add calls f(e).
func (f SinkFunc) Add(e Event) { f(e) }

// BatchSink is a Sink that can also consume events a slice at a time.
// Producers with events in hand (the interpreter's emission buffer, a
// trace file replay) should prefer AddBatch: it amortizes the per-event
// call overhead and lets builders run their batched fast path. The
// callee must not retain the slice; AddBatch(es) is always equivalent
// to calling Add for each element in order.
type BatchSink interface {
	Sink
	AddBatch(es []Event)
}

// LateSink is a BatchSink whose destination is bound after the sink is
// handed out: a producer that needs its sink at construction (the
// interpreter) can feed a consumer that needs the producer first (a WPP
// builder needs the machine's numberings). Dst must be set before the
// first event arrives. Producers see a BatchSink, so events travel a
// slice at a time.
type LateSink struct{ Dst BatchSink }

// Add forwards e to Dst.
func (s *LateSink) Add(e Event) { s.Dst.Add(e) }

// AddBatch forwards es to Dst.
func (s *LateSink) AddBatch(es []Event) { s.Dst.AddBatch(es) }

// AddBatch appends the whole slice; Buffer is the in-memory BatchSink.
func (b *Buffer) AddBatch(es []Event) { b.Events = append(b.Events, es...) }
