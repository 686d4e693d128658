package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/geom"
)

func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.U8(7)
	e.U64(math.MaxUint64)
	e.Uv(300)
	e.Vi(-5)
	e.Bool(true)
	e.Bool(false)
	e.Str("net")
	e.Blob([]byte{1, 2, 3})
	e.Blob(nil)
	e.Rect(geom.R(-1, 2, 30, 40))

	d := NewDec(e.Bytes())
	if got := d.U8(); got != 7 {
		t.Fatalf("U8 = %d", got)
	}
	if got := d.U64(); got != math.MaxUint64 {
		t.Fatalf("U64 = %d", got)
	}
	if got := d.Uv(); got != 300 {
		t.Fatalf("Uv = %d", got)
	}
	if got := d.Vi(); got != -5 {
		t.Fatalf("Vi = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool round trip")
	}
	if got := d.Str(); got != "net" {
		t.Fatalf("Str = %q", got)
	}
	if got := d.Blob(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("Blob = %v", got)
	}
	if got := d.Blob(); got != nil {
		t.Fatalf("empty Blob = %v, want nil", got)
	}
	if got := d.Rect(); got != geom.R(-1, 2, 30, 40) {
		t.Fatalf("Rect = %v", got)
	}
	if err := d.Finish("test"); err != nil {
		t.Fatal(err)
	}
}

// TestDecStickyError: the first malformation poisons the decoder, later
// reads return zero values without consuming input, and Finish reports the
// first error.
func TestDecStickyError(t *testing.T) {
	d := NewDec([]byte{2, 5})
	if got := d.Bool(); got || d.OK() {
		t.Fatalf("Bool(2) = %v, OK = %v; want false, poisoned", got, d.OK())
	}
	if d.U8() != 0 || d.Uv() != 0 || d.Str() != "" || d.Blob() != nil {
		t.Fatal("poisoned decoder returned a non-zero value")
	}
	if err := d.Finish("test"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Finish = %v, want ErrCorrupt", err)
	}

	for name, read := range map[string]func(*Dec){
		"u64":   func(d *Dec) { d.U64() },
		"count": func(d *Dec) { d.Count(1) },
		"str":   func(d *Dec) { d.Str() },
	} {
		d := NewDec([]byte{9}) // too short for a u64, a count of 9, a 9-byte string
		read(&d)
		if err := d.Finish("test"); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s on a short payload: Finish = %v, want ErrCorrupt", name, err)
		}
	}

	d = NewDec([]byte{1, 0})
	d.U8()
	if err := d.Finish("test"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: Finish = %v, want ErrCorrupt", err)
	}
}

func TestFramePieces(t *testing.T) {
	f := Format{Magic: "WIRE", Version: 3}
	prefix := f.AppendPrefix(nil, 9)
	if kind, err := f.CheckPrefix(prefix); err != nil || kind != 9 {
		t.Fatalf("CheckPrefix = %d, %v", kind, err)
	}
	if _, err := (Format{Magic: "XIRE", Version: 3}).CheckPrefix(prefix); !errors.Is(err, ErrFormat) {
		t.Fatalf("bad magic: %v, want ErrFormat", err)
	}
	if _, err := (Format{Magic: "WIRE", Version: 4}).CheckPrefix(prefix); !errors.Is(err, ErrVersion) {
		t.Fatalf("version skew: %v, want ErrVersion", err)
	}
	if _, err := f.CheckPrefix(prefix[:len(prefix)-1]); !errors.Is(err, ErrFormat) {
		t.Fatalf("truncated prefix: %v, want ErrFormat", err)
	}

	payload := []byte("payload")
	framed := AppendSum(append([]byte(nil), payload...), payload)
	if got, err := CheckPayload(framed, uint64(len(payload))); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("CheckPayload = %q, %v", got, err)
	}
	bad := append([]byte(nil), framed...)
	bad[0] ^= 1
	if _, err := CheckPayload(bad, uint64(len(payload))); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped payload: %v, want ErrChecksum", err)
	}
	if _, err := CheckPayload(framed[:len(framed)-1], uint64(len(payload))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated trailer: %v, want ErrCorrupt", err)
	}
	// A forged length must fail on the cap, not wrap n+SumLen and slice
	// out of range.
	for _, n := range []uint64{MaxPayload + 1, math.MaxUint64 - 1} {
		if _, err := CheckPayload(framed, n); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("length %d: %v, want ErrCorrupt", n, err)
		}
	}
}
