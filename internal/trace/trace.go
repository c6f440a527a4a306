// Package trace defines the path-event stream that flows from an
// instrumented execution into the whole-program-path builder, together
// with its on-disk encodings and the DEFLATE compression baseline the
// evaluation compares against.
//
// An Event identifies one completed Ball–Larus acyclic path: which
// function it belongs to and the path ID within that function. Events pack
// into a single uint64 so they can be fed to SEQUITUR directly as terminal
// symbols.
package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Typed stream errors. Decode paths wrap these sentinels so consumers of
// untrusted input — wppd's ingest handlers above all — can map malformed
// wire data to a client error (HTTP 400) instead of treating it like an
// internal fault. Match with errors.Is.
var (
	// ErrBadMagic reports a stream that does not start with the WPT1
	// trace magic.
	ErrBadMagic = errors.New("bad trace magic")
	// ErrTruncated reports a stream that ends mid-event (a varint cut
	// short, e.g. a batch frame whose connection dropped mid-flight).
	ErrTruncated = errors.New("truncated trace")
	// ErrEventRange reports an event value no Ball–Larus numbering could
	// have produced (function or path component out of range).
	ErrEventRange = errors.New("event out of range")
)

// PathBits is the number of low bits of an Event holding the path ID.
const PathBits = 40

// MaxFuncs bounds function IDs so that packed events stay below
// sequitur.MaxTerminal.
const MaxFuncs = 1 << 21

// Event is a packed (function, path) pair: funcID<<PathBits | pathID.
type Event uint64

// NewEvent packs a function ID and path ID, rejecting out-of-range
// components. Decode paths use it to refuse events no numbering could
// have produced; internally-validated numbering code uses MakeEvent.
func NewEvent(fn uint32, path uint64) (Event, error) {
	if fn >= MaxFuncs {
		return 0, fmt.Errorf("trace: %w: function ID %d out of range (max %d)", ErrEventRange, fn, MaxFuncs-1)
	}
	if path >= 1<<PathBits {
		return 0, fmt.Errorf("trace: %w: path ID %d out of range (max %d)", ErrEventRange, path, uint64(1)<<PathBits-1)
	}
	return Event(uint64(fn)<<PathBits | path), nil
}

// MakeEvent packs a function ID and path ID. It panics if either is out of
// range; callers validate sizes when numbering functions.
func MakeEvent(fn uint32, path uint64) Event {
	e, err := NewEvent(fn, path)
	if err != nil {
		panic(err.Error())
	}
	return e
}

// CheckEvent validates a packed event read from an untrusted encoding:
// the function ID must be representable by MakeEvent. (Path IDs are
// bounded by construction — the low PathBits bits cannot overflow.)
func CheckEvent(e Event) error {
	_, err := NewEvent(e.Func(), e.Path())
	return err
}

// Func returns the function ID of the event.
func (e Event) Func() uint32 { return uint32(e >> PathBits) }

// Path returns the path ID of the event.
func (e Event) Path() uint64 { return uint64(e) & (1<<PathBits - 1) }

func (e Event) String() string { return fmt.Sprintf("f%d:p%d", e.Func(), e.Path()) }

// Buffer is an in-memory event stream. The zero value is ready to use.
type Buffer struct {
	Events []Event
}

// Add appends an event.
func (b *Buffer) Add(e Event) { b.Events = append(b.Events, e) }

// Len reports the number of events.
func (b *Buffer) Len() int { return len(b.Events) }

// blockSize is the byte block the WPT1 Reader decodes from.
const blockSize = 32 << 10

var traceMagic = [4]byte{'W', 'P', 'T', '1'}

// AppendFrame appends the WPT1 encoding of events to dst — the 4-byte
// magic, then one uvarint per event — and returns the extended slice.
// It is the one WPT1 encoder: a trace file is one long frame, and a
// wppd ingest body is one frame.
func AppendFrame(dst []byte, events []Event) []byte {
	dst = append(dst, traceMagic[:]...)
	for _, e := range events {
		dst = binary.AppendUvarint(dst, uint64(e))
	}
	return dst
}

// Writer streams events to an io.Writer in the raw uncompressed trace
// format, one AppendFrame frame. This is the "explicit trace" whose
// size the paper's Table 1 reports.
type Writer struct {
	bw     *bufio.Writer
	n      int64
	events uint64
	buf    [binary.MaxVarintLen64]byte
}

// NewWriter returns a trace writer over w.
func NewWriter(w io.Writer) (*Writer, error) {
	tw := &Writer{bw: bufio.NewWriter(w)}
	n, err := tw.bw.Write(AppendFrame(tw.buf[:0], nil))
	tw.n = int64(n)
	return tw, err
}

// Write appends one event.
func (w *Writer) Write(e Event) error {
	wrote, err := w.bw.Write(binary.AppendUvarint(w.buf[:0], uint64(e)))
	w.n += int64(wrote)
	w.events++
	return err
}

// Flush flushes buffered output.
func (w *Writer) Flush() error { return w.bw.Flush() }

// BytesWritten reports the bytes produced so far (pre-Flush bytes
// included).
func (w *Writer) BytesWritten() int64 { return w.n }

// Events reports the number of events written.
func (w *Writer) Events() uint64 { return w.events }

// Reader decodes a WPT1 stream a block at a time: it reads up to
// blockSize bytes into a buffer it owns and decodes the complete
// varints in it, carrying a varint cut by the block's end over to the
// next refill. The zero Reader is ready for Reset, so servers can pool
// readers across streams.
type Reader struct {
	rd       io.Reader
	buf      []byte // the block; buf[off:end] is read but not decoded
	off, end int
	err      error // the read error that ended rd (io.EOF at its end)
}

// NewReader validates the magic and returns a reader.
func NewReader(rd io.Reader) (*Reader, error) {
	r := new(Reader)
	if err := r.Reset(rd); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset discards the reader's state, validates the magic at the start
// of rd and leaves the reader positioned on rd's first event. The block
// is allocated on first use and kept across Resets.
func (r *Reader) Reset(rd io.Reader) error {
	if r.buf == nil {
		r.buf = make([]byte, blockSize)
	}
	r.rd, r.off, r.end, r.err = rd, 0, 0, nil
	for r.end < len(traceMagic) && r.err == nil {
		r.fill()
	}
	if r.end < len(traceMagic) {
		if r.err == io.EOF || r.err == io.ErrUnexpectedEOF {
			return fmt.Errorf("trace: %w: stream ends %d bytes into the magic", ErrTruncated, r.end)
		}
		return fmt.Errorf("trace: reading magic: %w", r.err)
	}
	if m := r.buf[:len(traceMagic)]; !bytes.Equal(m, traceMagic[:]) {
		return fmt.Errorf("trace: %w %q", ErrBadMagic, m)
	}
	r.off = len(traceMagic)
	return nil
}

// fill moves the undecoded tail of the block to its front and makes one
// Read into the space after it, recording the read error, if any. Like
// bufio, it gives up with io.ErrNoProgress after 100 empty reads.
func (r *Reader) fill() {
	r.end = copy(r.buf, r.buf[r.off:r.end])
	r.off = 0
	for range 100 {
		n, err := r.rd.Read(r.buf[r.end:])
		r.end += n
		if err != nil {
			r.err = err
			return
		}
		if n > 0 {
			return
		}
	}
	r.err = io.ErrNoProgress
}

// ReadBatch decodes up to len(dst) events into dst and returns how many
// it decoded. Events are validated as they are decoded: a stream cut
// mid-varint returns ErrTruncated, and a varint past 64 bits or a value
// no numbering could have produced returns ErrEventRange, so
// adversarial input surfaces as a typed error rather than corrupting
// (or panicking) a downstream builder. At the end of a well-formed
// stream it returns io.EOF. dst[:n] holds valid events even when err is
// not nil, and the error is sticky: every later call returns it again
// with n = 0.
func (r *Reader) ReadBatch(dst []Event) (int, error) {
	n := 0
	for n < len(dst) {
		b := r.buf[r.off:r.end]
		var k int
		for n < len(dst) {
			var v uint64
			if v, k = binary.Uvarint(b); k <= 0 {
				break
			}
			if Event(v).Func() >= MaxFuncs { // CheckEvent's test, without a call per event
				r.off = r.end - len(b)
				return n, CheckEvent(Event(v))
			}
			dst[n] = Event(v)
			n++
			b = b[k:]
		}
		r.off = r.end - len(b)
		if n == len(dst) {
			break
		}
		// Uvarint wants more bytes than b holds (k == 0) or saw more
		// than 64 bits (k < 0). Ten bytes that all continue overflow
		// whatever follows them.
		if k < 0 || len(b) >= binary.MaxVarintLen64 {
			return n, fmt.Errorf("trace: %w: varint overflows a 64-bit integer", ErrEventRange)
		}
		if r.err != nil {
			return n, r.endErr(len(b) > 0)
		}
		r.fill()
	}
	return n, nil
}

// endErr maps the read error that ended the stream to the decoder's
// contract; cut reports whether it came mid-varint.
func (r *Reader) endErr(cut bool) error {
	switch {
	case r.err == io.EOF && !cut:
		return io.EOF
	case r.err == io.EOF || r.err == io.ErrUnexpectedEOF:
		return fmt.Errorf("trace: %w: event cut mid-varint", ErrTruncated)
	default:
		return fmt.Errorf("trace: %w", r.err)
	}
}

// Read returns the next event, or io.EOF at the end of the stream, with
// ReadBatch's validation.
func (r *Reader) Read() (Event, error) {
	var e [1]Event
	if _, err := r.ReadBatch(e[:]); err != nil {
		return 0, err
	}
	return e[0], nil
}

// EncodedSize returns the raw trace size in bytes for the given events,
// without materializing the encoding.
func EncodedSize(events []Event) int64 {
	n := int64(len(traceMagic))
	for _, e := range events {
		v := uint64(e)
		n++
		for v >= 0x80 {
			v >>= 7
			n++
		}
	}
	return n
}

// FixedSize returns the size of the naive fixed-width encoding (8 bytes
// per event), the figure a tool that dumps raw words would produce.
func FixedSize(events []Event) int64 { return int64(len(events)) * 8 }

// DeflateSize compresses the varint encoding of events with DEFLATE at the
// given level (flate.BestCompression for the paper's gzip baseline) and
// returns the compressed size in bytes.
func DeflateSize(events []Event, level int) (int64, error) {
	var cw countingDiscard
	fw, err := flate.NewWriter(&cw, level)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriter(fw)
	var buf [binary.MaxVarintLen64]byte
	for _, e := range events {
		n := binary.PutUvarint(buf[:], uint64(e))
		if _, err := bw.Write(buf[:n]); err != nil {
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		return 0, err
	}
	if err := fw.Close(); err != nil {
		return 0, err
	}
	return cw.n, nil
}

type countingDiscard struct{ n int64 }

func (c *countingDiscard) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
