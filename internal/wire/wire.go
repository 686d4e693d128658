// Package wire is the binary codec shared by the router's persisted
// formats: internal/snapshot (session and checkpoint frames) and
// internal/journal (the ECO write-ahead log). Every frame of either format
// is
//
//	magic | version u16 | kind u8 | payload length | payload | crc32(payload)
//
// with little-endian fixed-width fields and a varint-coded payload. The
// payload length is the one field each format codes its own way (a fixed
// u64 in a snapshot, a uvarint in a journal record), so it stays with the
// format; wire owns the prefix before it (Format), the cap it is checked
// against (CheckLen), the CRC-32 trailer after the payload (AppendSum,
// CheckPayload), the payload encoder (Enc) and decoder (Dec), and the typed
// errors every decode failure wraps.
//
// Decoding fails closed: every read is bounds-checked, every count is
// proven plausible against the remaining payload before allocation, and no
// input makes a decoder panic.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/geom"
)

// Typed decode errors. Every failure wraps exactly one of these, so callers
// can distinguish "wrong file" from "stale format" from "bit rot";
// internal/snapshot re-exports them (and the root package as
// genroute.ErrSnapshot*), and a journal fails with the same values.
var (
	// ErrFormat marks a stream that is not of the expected format at all
	// (bad magic or a truncated header).
	ErrFormat = errors.New("snapshot: not a snapshot stream")
	// ErrVersion marks a stream written by an incompatible codec version.
	ErrVersion = errors.New("snapshot: unsupported version")
	// ErrChecksum marks a payload whose CRC does not match.
	ErrChecksum = errors.New("snapshot: payload checksum mismatch")
	// ErrCorrupt marks a payload that passes the checksum but does not
	// decode (truncated, inconsistent counts, or illegal values).
	ErrCorrupt = errors.New("snapshot: corrupt payload")
)

// MaxPayload is the decode allocation cap; real payloads are far smaller.
const MaxPayload = 1 << 30

// SumLen is the byte length of the CRC-32 trailer.
const SumLen = 4

// Format identifies one framed format: its magic string and the codec
// version this build reads and writes.
type Format struct {
	Magic   string
	Version uint16
}

// AppendPrefix appends the frame prefix (magic | version | kind) to dst.
func (f Format) AppendPrefix(dst []byte, kind byte) []byte {
	dst = append(dst, f.Magic...)
	dst = binary.LittleEndian.AppendUint16(dst, f.Version)
	return append(dst, kind)
}

// CheckPrefix verifies the magic and version of the frame prefix at the
// start of b and returns the frame's kind.
func (f Format) CheckPrefix(b []byte) (kind byte, err error) {
	if len(b) < len(f.Magic)+3 {
		return 0, fmt.Errorf("%w: truncated header", ErrFormat)
	}
	if string(b[:len(f.Magic)]) != f.Magic {
		return 0, fmt.Errorf("%w: bad magic", ErrFormat)
	}
	if v := binary.LittleEndian.Uint16(b[len(f.Magic):]); v != f.Version {
		return 0, fmt.Errorf("%w: stream version %d, this build reads %d", ErrVersion, v, f.Version)
	}
	return b[len(f.Magic)+2], nil
}

// CheckLen rejects a decoded payload length above MaxPayload.
func CheckLen(n uint64) error {
	if n > MaxPayload {
		return fmt.Errorf("%w: payload length %d exceeds cap", ErrCorrupt, n)
	}
	return nil
}

// AppendSum appends the CRC-32 trailer of payload to dst.
func AppendSum(dst, payload []byte) []byte {
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
}

// CheckPayload returns the n-byte payload at the start of b once its
// length passes CheckLen, b holds the CRC-32 trailer after it, and the
// trailer matches.
func CheckPayload(b []byte, n uint64) ([]byte, error) {
	if err := CheckLen(n); err != nil {
		return nil, err
	}
	if uint64(len(b)) < n+SumLen {
		return nil, fmt.Errorf("%w: truncated payload (%d of %d bytes)", ErrCorrupt, len(b), n+SumLen)
	}
	if crc32.ChecksumIEEE(b[:n]) != binary.LittleEndian.Uint32(b[n:]) {
		return nil, ErrChecksum
	}
	return b[:n], nil
}

// Enc builds a varint-coded payload. The zero value is ready to use.
type Enc struct{ buf []byte }

// Bytes returns the payload encoded so far.
func (e *Enc) Bytes() []byte { return e.buf }

func (e *Enc) U8(v byte)    { e.buf = append(e.buf, v) }
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *Enc) Uv(v uint64)  { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *Enc) Vi(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }

func (e *Enc) Str(s string) {
	e.Uv(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *Enc) Blob(b []byte) {
	e.Uv(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *Enc) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

func (e *Enc) Rect(r geom.Rect) {
	e.Vi(int64(r.MinX))
	e.Vi(int64(r.MinY))
	e.Vi(int64(r.MaxX))
	e.Vi(int64(r.MaxY))
}

// Dec decodes a payload with a sticky error: the first malformation poisons
// every later read (which then returns the zero value), and Finish reports
// it (or trailing garbage). All reads are bounds-checked; none panics.
type Dec struct {
	b   []byte
	err error
}

// NewDec returns a decoder over payload.
func NewDec(payload []byte) Dec { return Dec{b: payload} }

// OK reports whether every read so far succeeded; decode loops poll it so
// a poisoned decoder stops early.
func (d *Dec) OK() bool { return d.err == nil }

// Corrupt poisons the decoder with an ErrCorrupt naming why, unless it is
// already poisoned.
func (d *Dec) Corrupt(why string) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrCorrupt, why)
	}
}

// take consumes the next n bytes; it returns nil, poisoning the decoder
// with ErrCorrupt(why), if fewer remain.
func (d *Dec) take(n int, why string) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.Corrupt(why)
		return nil
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}

func (d *Dec) U8() byte {
	if b := d.take(1, "truncated byte"); b != nil {
		return b[0]
	}
	return 0
}

func (d *Dec) U64() uint64 {
	if b := d.take(8, "truncated u64"); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (d *Dec) Uv() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.Corrupt("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *Dec) Vi() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.Corrupt("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *Dec) Bool() bool {
	v := d.U8()
	if v > 1 {
		d.Corrupt("bad bool")
		return false
	}
	return v == 1
}

func (d *Dec) Rect() geom.Rect {
	return geom.Rect{
		MinX: geom.Coord(d.Vi()),
		MinY: geom.Coord(d.Vi()),
		MaxX: geom.Coord(d.Vi()),
		MaxY: geom.Coord(d.Vi()),
	}
}

// Count reads an element count and proves it plausible: each element needs
// at least min payload bytes, so a count the remaining bytes cannot hold is
// corrupt — checked before any allocation sized by it.
func (d *Dec) Count(min int) int {
	v := d.Uv()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if v > uint64(len(d.b)/min) {
		d.Corrupt("count exceeds remaining payload")
		return 0
	}
	return int(v)
}

func (d *Dec) Str() string { return string(d.take(d.Count(1), "truncated string")) }

// Blob reads a length-prefixed byte string into a fresh slice, so the
// result does not alias the payload.
func (d *Dec) Blob() []byte { return append([]byte(nil), d.take(d.Count(1), "truncated blob")...) }

// Finish returns the sticky error, or an ErrCorrupt if the payload (named
// what in the message) has bytes left over.
func (d *Dec) Finish(what string) error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes in %s payload", ErrCorrupt, len(d.b), what)
	}
	return nil
}
