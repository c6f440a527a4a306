package trace

import (
	"strings"
	"testing"
)

func TestNewEventTable(t *testing.T) {
	cases := []struct {
		name string
		fn   uint32
		path uint64
		ok   bool
	}{
		{"zero", 0, 0, true},
		{"max func", MaxFuncs - 1, 0, true},
		{"max path", 0, 1<<PathBits - 1, true},
		{"both max", MaxFuncs - 1, 1<<PathBits - 1, true},
		{"func out of range", MaxFuncs, 0, false},
		{"func far out of range", 1 << 31, 0, false},
		{"path out of range", 0, 1 << PathBits, false},
		{"path far out of range", 0, 1<<63 - 1, false},
		{"both out of range", MaxFuncs, 1 << PathBits, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, err := NewEvent(c.fn, c.path)
			if c.ok {
				if err != nil {
					t.Fatalf("NewEvent(%d,%d): %v", c.fn, c.path, err)
				}
				if e.Func() != c.fn || e.Path() != c.path {
					t.Fatalf("NewEvent(%d,%d) round-trips to (%d,%d)", c.fn, c.path, e.Func(), e.Path())
				}
				if err := CheckEvent(e); err != nil {
					t.Fatalf("CheckEvent(%v): %v", e, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("NewEvent(%d,%d) accepted out-of-range input", c.fn, c.path)
			}
			if !strings.Contains(err.Error(), "out of range") {
				t.Fatalf("NewEvent(%d,%d) error %q lacks range diagnostic", c.fn, c.path, err)
			}
		})
	}
}

func TestCheckEventRejectsOverwideFunc(t *testing.T) {
	// A raw uint64 from an untrusted decode can carry function bits
	// beyond MaxFuncs; CheckEvent must refuse it.
	raw := Event(uint64(MaxFuncs) << PathBits)
	if err := CheckEvent(raw); err == nil {
		t.Fatal("CheckEvent accepted function ID beyond MaxFuncs")
	}
}

func TestSinkFuncAdapts(t *testing.T) {
	var got []Event
	var s Sink = SinkFunc(func(e Event) { got = append(got, e) })
	s.Add(MakeEvent(1, 2))
	if len(got) != 1 || got[0] != MakeEvent(1, 2) {
		t.Fatalf("SinkFunc recorded %v", got)
	}
}

func TestLateSinkForwardsToBoundDst(t *testing.T) {
	s := &LateSink{}
	var b Buffer
	s.Dst = &b
	var bs BatchSink = s
	bs.Add(MakeEvent(1, 2))
	bs.AddBatch([]Event{MakeEvent(3, 4), MakeEvent(5, 6)})
	want := []Event{MakeEvent(1, 2), MakeEvent(3, 4), MakeEvent(5, 6)}
	if len(b.Events) != len(want) {
		t.Fatalf("destination holds %d events, want %d", len(b.Events), len(want))
	}
	for i := range want {
		if b.Events[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, b.Events[i], want[i])
		}
	}
}
