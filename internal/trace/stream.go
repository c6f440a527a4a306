package trace

import "io"

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

// Source streams path events in order without requiring the whole trace
// in memory. Each calls yield for every event until the stream ends or
// yield returns false, and reports how many events were yielded.
// Implementations: Buffer (in-memory slice), ReaderSource (raw trace
// file); the interpreter is the push-side dual, feeding a Sink directly.
type Source interface {
	Each(yield func(Event) bool) (uint64, error)
}

// Each yields the buffered events; Buffer is the in-memory Source.
func (b *Buffer) Each(yield func(Event) bool) (uint64, error) {
	for i, e := range b.Events {
		if !yield(e) {
			return uint64(i + 1), nil
		}
	}
	return uint64(len(b.Events)), nil
}

// ReaderSource adapts a raw trace Reader ("WPT1" stream) to a Source,
// so a recorded trace file replays through the same pipeline as a live
// execution.
type ReaderSource struct {
	r       *Reader
	batch   [512]Event
	pending []Event // the tail of batch decoded but not yet yielded
}

// NewReaderSource validates the trace magic on rd and returns the
// streaming source.
func NewReaderSource(rd io.Reader) (*ReaderSource, error) {
	r, err := NewReader(rd)
	if err != nil {
		return nil, err
	}
	return &ReaderSource{r: r}, nil
}

// Each streams events until EOF or until yield returns false; a later
// Each resumes after the last event yielded.
func (s *ReaderSource) Each(yield func(Event) bool) (uint64, error) {
	var n uint64
	for {
		for len(s.pending) > 0 {
			e := s.pending[0]
			s.pending = s.pending[1:]
			n++
			if !yield(e) {
				return n, nil
			}
		}
		// The Reader's errors are sticky, so an error that came with
		// the last events is returned by the next call.
		k, err := s.r.ReadBatch(s.batch[:])
		if k == 0 {
			if err == io.EOF {
				err = nil
			}
			return n, err
		}
		s.pending = s.batch[:k]
	}
}

// Copy drains src into dst and reports the number of events moved. It is
// the bridge between the pull side (Source) and the push side (Sink) of
// the pipeline.
func Copy(dst Sink, src Source) (uint64, error) {
	return src.Each(func(e Event) bool {
		dst.Add(e)
		return true
	})
}
