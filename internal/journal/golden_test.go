package journal

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// goldenJournal pins a journal image byte for byte: the fixture
// header+rebase base followed by one edit record per op kind and one record
// mixing all three. A codec refactor that changes a single byte fails here;
// the constant must never be regenerated to make a change pass — a real
// format change bumps Version instead.
const goldenJournal = "47524a524e4c01000109cefaedfe000000000451bf25b247524a524e4c010002" +
	"32167b2263656c6c73223a5b5d2c226e657473223a5b5d7d1a4752534e41502d" +
	"736861706564206f7061717565206279746573d700226a47524a524e4c010003" +
	"1901110000000000000001010d7b226e616d65223a226e31227d891660834752" +
	"4a524e4c01000310022200000000000000010204676f6e651f7dbb7647524a52" +
	"4e4c010003100333000000000000000103026333070e91a6cde547524a524e4c" +
	"0100032504c4ab00000000000003010d7b226e616d65223a226e31227d020467" +
	"6f6e6503026333070e2fb59adc"

// goldenRecords are the edit records goldenImage appends after the base.
func goldenRecords() []Record {
	mixed := fixtureRecord(4)
	return []Record{
		{Seq: 1, PostHash: 0x11, Ops: []Op{{Kind: OpAddNet, NetJSON: []byte(`{"name":"n1"}`)}}},
		{Seq: 2, PostHash: 0x22, Ops: []Op{{Kind: OpRemoveNet, Name: "gone"}}},
		{Seq: 3, PostHash: 0x33, Ops: []Op{{Kind: OpMoveCell, Name: "c3", DX: -4, DY: 7}}},
		mixed,
	}
}

func goldenImage() []byte {
	b := EncodeBase(fixtureHeader(), fixtureRebase())
	recs := goldenRecords()
	for i := range recs {
		b = append(b, EncodeRecordFrame(&recs[i])...)
	}
	return b
}

func TestGoldenBytes(t *testing.T) {
	want, err := hex.DecodeString(goldenJournal)
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenImage(); !bytes.Equal(got, want) {
		t.Fatalf("encoded journal drifted from the golden bytes:\n got %x\nwant %x", got, want)
	}
	// The decoder must read the pinned bytes back to the fixtures.
	s, err := Scan(want)
	if err != nil {
		t.Fatalf("golden journal no longer scans: %v", err)
	}
	if s.Torn || s.ValidLen != int64(len(want)) {
		t.Fatalf("golden journal scanned torn=%v ValidLen=%d of %d", s.Torn, s.ValidLen, len(want))
	}
	if s.Header != fixtureHeader() {
		t.Fatalf("header = %+v", s.Header)
	}
	rb := fixtureRebase()
	if !bytes.Equal(s.Rebase.LayoutJSON, rb.LayoutJSON) || !bytes.Equal(s.Rebase.Session, rb.Session) {
		t.Fatalf("rebase = %+v", s.Rebase)
	}
	recs := goldenRecords()
	if len(s.Records) != len(recs) {
		t.Fatalf("scanned %d records, want %d", len(s.Records), len(recs))
	}
	for i := range recs {
		if got := EncodeRecordFrame(&s.Records[i]); !bytes.Equal(got, EncodeRecordFrame(&recs[i])) {
			t.Fatalf("record %d does not survive scan+encode: %+v", i, s.Records[i])
		}
	}
}
