// Package wire is the small binary codec under the engine checkpoint
// format: a magic/version header, fixed-width little-endian
// primitives, and a trailing CRC-32C over everything written, so a
// reader can reject truncated, corrupted, or version-skewed streams
// with a typed error before any of the payload is trusted.
//
// The codec is deliberately dumb: no reflection, no varints, no
// schema. Layout knowledge lives entirely in the caller (one write
// call per field, mirrored by one read call), which keeps the format
// auditable byte for byte and the failure modes enumerable.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
)

// Typed decode failures. Callers match with errors.Is; the returned
// errors wrap these sentinels with positional detail.
var (
	// ErrMagic means the stream does not start with the expected
	// 4-byte magic — it is not a stream of this format at all.
	ErrMagic = errors.New("wire: bad magic")
	// ErrVersion means the magic matched but the format version is one
	// this build does not speak.
	ErrVersion = errors.New("wire: unsupported version")
	// ErrChecksum means the payload parsed but its CRC-32C footer does
	// not match: the bytes were corrupted in flight or at rest.
	ErrChecksum = errors.New("wire: checksum mismatch")
	// ErrTruncated means the stream ended before the declared payload
	// (or the footer) was complete.
	ErrTruncated = errors.New("wire: truncated stream")
)

// castagnoli is the CRC-32C table; Castagnoli has hardware support on
// amd64/arm64, so checksumming never shows up in checkpoint profiles.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxSliceLen caps decoded slice and string lengths. Together with
// the grow-as-bytes-arrive decoding below (allocations track data
// actually read, never the declared length), a corrupted length
// prefix cannot drive a large allocation before the checksum is ever
// verified: on a finite stream it just runs into ErrTruncated.
const maxSliceLen = 1 << 28

// growChunk bounds how far ahead of the consumed bytes any decode
// allocation runs.
const growChunk = 1 << 16

// writeBufSize is how many bytes a Writer collects before folding
// them into the CRC and handing them to the underlying writer in one
// call. Per-field writes stay a bounds check and a store; the checksum
// and the io.Writer see 64 KiB at a time.
const writeBufSize = 1 << 16

// Writer encodes primitives to an io.Writer while folding every byte
// (header included) into a running CRC-32C. Output is collected in an
// internal buffer and flushed in bulk, so callers need no bufio layer
// of their own. Errors are sticky: after the first write failure all
// further calls are no-ops, and Err and Close report the error. A
// failure of the underlying writer surfaces at the flush that hit it.
type Writer struct {
	w   io.Writer
	crc uint32
	err error
	buf []byte // pending bytes, not yet in crc or w
}

// NewWriter starts a stream: it writes the 4-byte magic and the
// format version before returning.
func NewWriter(w io.Writer, magic string, version uint32) *Writer {
	wr := &Writer{w: w, buf: make([]byte, 0, writeBufSize)}
	if len(magic) != 4 {
		wr.err = fmt.Errorf("wire: magic must be 4 bytes, got %d", len(magic))
		return wr
	}
	wr.writeString(magic)
	wr.Uint32(version)
	return wr
}

// flush folds the pending bytes into the CRC and writes them out.
func (w *Writer) flush() {
	if w.err != nil || len(w.buf) == 0 {
		return
	}
	w.emit(w.buf)
	w.buf = w.buf[:0]
}

// emit writes p to the underlying writer and, on success, into the
// CRC.
func (w *Writer) emit(p []byte) {
	n, err := w.w.Write(p)
	if err == nil && n != len(p) {
		err = io.ErrShortWrite
	}
	if err != nil {
		w.err = err
		return
	}
	w.crc = crc32.Update(w.crc, castagnoli, p)
}

// reserve makes room for n more bytes in the buffer (n <= its
// capacity) and reports whether the stream is still healthy.
func (w *Writer) reserve(n int) bool {
	if len(w.buf)+n > cap(w.buf) {
		w.flush()
	}
	return w.err == nil
}

// writeString appends raw bytes; a string at least as large as the
// buffer bypasses it.
func (w *Writer) writeString(s string) {
	if len(s) >= cap(w.buf) {
		w.flush()
		if w.err == nil {
			w.emit([]byte(s))
		}
		return
	}
	if w.reserve(len(s)) {
		w.buf = append(w.buf, s...)
	}
}

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Close flushes the pending bytes, writes the CRC-32C footer and
// returns the first error of the whole stream. It does not close the
// underlying writer.
func (w *Writer) Close() error {
	w.flush()
	if w.err != nil {
		return w.err
	}
	var foot [4]byte
	binary.LittleEndian.PutUint32(foot[:], w.crc)
	if _, err := w.w.Write(foot[:]); err != nil {
		w.err = err
	}
	return w.err
}

// Uint8 writes one byte.
func (w *Writer) Uint8(v uint8) {
	if w.reserve(1) {
		w.buf = append(w.buf, v)
	}
}

// Bool writes a bool as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	w.Uint8(b)
}

// Uint32 writes a fixed-width little-endian uint32.
func (w *Writer) Uint32(v uint32) {
	if w.reserve(4) {
		w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
	}
}

// Uint64 writes a fixed-width little-endian uint64.
func (w *Writer) Uint64(v uint64) {
	if w.reserve(8) {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
	}
}

// Int64 writes an int64 (two's complement, little-endian).
func (w *Writer) Int64(v int64) { w.Uint64(uint64(v)) }

// Int writes an int as an int64.
func (w *Writer) Int(v int) { w.Int64(int64(v)) }

// Float64 writes the IEEE-754 bit pattern, so values round-trip bit
// for bit (NaN payloads and signed zeros included).
func (w *Writer) Float64(v float64) { w.Uint64(math.Float64bits(v)) }

// String writes a length-prefixed byte string.
func (w *Writer) String(s string) {
	w.Uint32(uint32(len(s)))
	w.writeString(s)
}

// Float64s writes a length-prefixed []float64.
func (w *Writer) Float64s(xs []float64) {
	w.Uint32(uint32(len(xs)))
	for _, x := range xs {
		w.Float64(x)
	}
}

// Int64s writes a length-prefixed []int64.
func (w *Writer) Int64s(xs []int64) {
	w.Uint32(uint32(len(xs)))
	for _, x := range xs {
		w.Int64(x)
	}
}

// Ints writes a length-prefixed []int (as int64s).
func (w *Writer) Ints(xs []int) {
	w.Uint32(uint32(len(xs)))
	for _, x := range xs {
		w.Int64(int64(x))
	}
}

// Int32s writes a length-prefixed []int32.
func (w *Writer) Int32s(xs []int32) {
	w.Uint32(uint32(len(xs)))
	for _, x := range xs {
		w.Uint32(uint32(x))
	}
}

// Strings writes a length-prefixed []string.
func (w *Writer) Strings(xs []string) {
	w.Uint32(uint32(len(xs)))
	for _, x := range xs {
		w.String(x)
	}
}

// Reader decodes a stream produced by Writer, folding every consumed
// byte into the CRC so Close can verify the footer. Errors are
// sticky; once any read fails, all further reads return zero values
// and Err/Close report the failure.
type Reader struct {
	r   io.Reader
	crc hash.Hash32
	err error
	buf [8]byte
}

// NewReader validates the 4-byte magic and the format version before
// returning; a stream of the wrong kind fails here with ErrMagic or
// ErrVersion, never half-parsed.
func NewReader(r io.Reader, magic string, version uint32) (*Reader, error) {
	rd, _, err := NewReaderVersions(r, magic, version)
	return rd, err
}

// NewReaderVersions is NewReader for formats that stay readable across
// revisions: the stream's version must match one of accept, and the
// matched version is returned so the caller can branch its decode
// layout on it. Anything else fails with ErrVersion (listing the
// accepted set) before any payload is parsed.
func NewReaderVersions(r io.Reader, magic string, accept ...uint32) (*Reader, uint32, error) {
	if len(magic) != 4 {
		return nil, 0, fmt.Errorf("wire: magic must be 4 bytes, got %d", len(magic))
	}
	if len(accept) == 0 {
		return nil, 0, errors.New("wire: no accepted versions")
	}
	rd := &Reader{r: r, crc: crc32.New(castagnoli)}
	var got [4]byte
	rd.read(got[:])
	if rd.err != nil {
		return nil, 0, rd.err
	}
	if string(got[:]) != magic {
		return nil, 0, fmt.Errorf("%w: got %q, want %q", ErrMagic, got[:], magic)
	}
	v := rd.Uint32()
	if rd.err != nil {
		return nil, 0, rd.err
	}
	for _, a := range accept {
		if v == a {
			return rd, v, nil
		}
	}
	return nil, 0, fmt.Errorf("%w: stream is v%d, this build reads %v", ErrVersion, v, accept)
}

func (r *Reader) read(p []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			r.err = fmt.Errorf("%w: %v", ErrTruncated, err)
		} else {
			r.err = err
		}
		return
	}
	r.crc.Write(p)
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// fail records the first error (used by length-guard checks).
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Close reads the 4-byte CRC footer and verifies it against every
// byte consumed since NewReader. A short footer is ErrTruncated; a
// mismatch is ErrChecksum.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	want := r.crc.Sum32() // snapshot before the footer bytes are read
	var foot [4]byte
	if _, err := io.ReadFull(r.r, foot[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			r.err = fmt.Errorf("%w: missing checksum footer", ErrTruncated)
		} else {
			r.err = err
		}
		return r.err
	}
	if got := binary.LittleEndian.Uint32(foot[:]); got != want {
		r.err = fmt.Errorf("%w: footer %08x, computed %08x", ErrChecksum, got, want)
	}
	return r.err
}

// Uint8 reads one byte.
func (r *Reader) Uint8() uint8 {
	r.read(r.buf[:1])
	return r.buf[0]
}

// Bool reads a byte written by Writer.Bool; any nonzero byte is true.
func (r *Reader) Bool() bool { return r.Uint8() != 0 }

// Uint32 reads a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	r.read(r.buf[:4])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

// Uint64 reads a little-endian uint64.
func (r *Reader) Uint64() uint64 {
	r.read(r.buf[:8])
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}

// Int64 reads an int64.
func (r *Reader) Int64() int64 { return int64(r.Uint64()) }

// Int reads an int64 written by Writer.Int.
func (r *Reader) Int() int { return int(r.Int64()) }

// Float64 reads an IEEE-754 bit pattern.
func (r *Reader) Float64() float64 { return math.Float64frombits(r.Uint64()) }

// length reads and guards a length prefix.
func (r *Reader) length() int {
	n := r.Uint32()
	if r.err != nil {
		return 0
	}
	if n > maxSliceLen {
		r.fail(fmt.Errorf("wire: length %d exceeds cap %d", n, maxSliceLen))
		return 0
	}
	return int(n)
}

// String reads a length-prefixed byte string, growing the buffer as
// bytes actually arrive.
func (r *Reader) String() string {
	n := r.length()
	if r.err != nil || n == 0 {
		return ""
	}
	out := make([]byte, 0, min(n, growChunk))
	var chunk [growChunk]byte
	for len(out) < n {
		m := min(n-len(out), growChunk)
		r.read(chunk[:m])
		if r.err != nil {
			return ""
		}
		out = append(out, chunk[:m]...)
	}
	return string(out)
}

// decodeSlice reads n elements via elem into a slice that grows with
// the data consumed (never preallocated to the declared length), so a
// lying length prefix ends in ErrTruncated, not an OOM.
func decodeSlice[T any](r *Reader, elem func() T) []T {
	n := r.length()
	if r.err != nil || n == 0 {
		return nil
	}
	xs := make([]T, 0, min(n, growChunk))
	for i := 0; i < n; i++ {
		v := elem()
		if r.err != nil {
			return nil
		}
		xs = append(xs, v)
	}
	return xs
}

// Float64s reads a length-prefixed []float64 (nil when empty).
func (r *Reader) Float64s() []float64 {
	return decodeSlice(r, r.Float64)
}

// Int64s reads a length-prefixed []int64 (nil when empty).
func (r *Reader) Int64s() []int64 {
	return decodeSlice(r, r.Int64)
}

// Ints reads a length-prefixed []int (nil when empty).
func (r *Reader) Ints() []int {
	return decodeSlice(r, r.Int)
}

// Int32s reads a length-prefixed []int32 (nil when empty).
func (r *Reader) Int32s() []int32 {
	return decodeSlice(r, func() int32 { return int32(r.Uint32()) })
}

// Strings reads a length-prefixed []string (nil when empty).
func (r *Reader) Strings() []string {
	return decodeSlice(r, r.String)
}
