package snapshot

import (
	"bytes"
	"encoding/hex"
	"testing"
)

// Golden frames pin the on-disk format byte for byte: a codec refactor that
// changes a single byte of an existing snapshot or checkpoint fails here.
// The constants must never be regenerated to make a change pass — a real
// format change bumps Version instead.
const (
	goldenSession = "4752534e41500100013a00000000000000fecaefbeadde00000802000214002864" +
		"011404010000001464001404010201001803070104010300000a000a0e000274" +
		"31000000000000020400580e2e29"
	goldenCheckpoint = "4752534e415001000236000000000000002a00000000000000040202030200" +
		"06020100080000000001020000080001000c00000000010200040c0401010201" +
		"0002000101010161741541b5"
)

func TestGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		golden string
		encode func(*bytes.Buffer) error
		// reencode decodes the golden frame and encodes the result again.
		reencode func([]byte, *bytes.Buffer) error
	}{
		{
			"session", goldenSession,
			func(b *bytes.Buffer) error { return EncodeSession(b, fixtureSession()) },
			func(in []byte, b *bytes.Buffer) error {
				s, err := DecodeSession(bytes.NewReader(in))
				if err != nil {
					return err
				}
				return EncodeSession(b, s)
			},
		},
		{
			"checkpoint", goldenCheckpoint,
			func(b *bytes.Buffer) error { return EncodeCheckpoint(b, fixtureCheckpoint()) },
			func(in []byte, b *bytes.Buffer) error {
				c, err := DecodeCheckpoint(bytes.NewReader(in))
				if err != nil {
					return err
				}
				return EncodeCheckpoint(b, c)
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := hex.DecodeString(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := tc.encode(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("encoded frame drifted from the golden bytes:\n got %x\nwant %x", got.Bytes(), want)
			}
			var again bytes.Buffer
			if err := tc.reencode(want, &again); err != nil {
				t.Fatalf("golden frame no longer decodes: %v", err)
			}
			if !bytes.Equal(again.Bytes(), want) {
				t.Fatalf("golden frame does not survive decode+encode:\n got %x\nwant %x", again.Bytes(), want)
			}
		})
	}
}
