package ckpt

import (
	"bytes"
	"testing"
)

// decodeAll drives the full decode surface over arbitrary bytes. Any
// outcome is acceptable except a panic.
func decodeAll(data []byte) {
	secs, err := Sections(bytes.NewReader(data))
	if err != nil {
		return
	}
	// A stream that validates may still carry page payloads; exercise
	// the run-length decoder on them too.
	if pages, ok := secs[SecPages]; ok {
		_ = UnpackPages(pages, make([]*Page, 64))
	}
}

// FuzzCheckpointDecode proves the decoder never panics on arbitrary
// input: every malformation must surface as an error.
func FuzzCheckpointDecode(f *testing.F) {
	// Seed with a valid image so the fuzzer starts deep inside the
	// format, the same image with a section flagged compressed, and
	// degenerate prefixes.
	var buf bytes.Buffer
	e, _ := NewEncoder(&buf)
	_ = e.Section(SecCPU, []byte("cpu"))
	_ = e.Section(SecPages, AppendPages(nil, make([]*Page, 4)))
	_ = e.Close()
	f.Add(buf.Bytes())
	f.Add(reheader(buf.Bytes(), 1, 3))

	f.Add([]byte{})
	f.Add([]byte{0x43, 0x58, 0x41, 0x56}) // magic alone
	f.Fuzz(func(t *testing.T, data []byte) {
		decodeAll(data)
	})
}

// TestDecoderByteFlips corrupts every single byte of a valid image in
// turn. The format's guarantee is tighter than "no panic": any
// one-byte flip anywhere must be detected, because every stored byte
// — headers included — is covered by a CRC, the manifest, or the
// magic/version words.
func TestDecoderByteFlips(t *testing.T) {
	img := buildStream(t)
	for i := range img {
		bad := append([]byte(nil), img...)
		bad[i] ^= 0x01
		if _, err := Sections(bytes.NewReader(bad)); err == nil {
			t.Errorf("flip at byte %d/%d decoded without error", i, len(img))
		}
	}
}

// TestDecoderBitFlipsAllBits widens the flip test to every bit of a
// small image.
func TestDecoderBitFlipsAllBits(t *testing.T) {
	var buf bytes.Buffer
	e, err := NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Section(SecCPU, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	for i := range img {
		for b := 0; b < 8; b++ {
			bad := append([]byte(nil), img...)
			bad[i] ^= 1 << b
			if _, err := Sections(bytes.NewReader(bad)); err == nil {
				t.Fatalf("bit %d of byte %d flipped and decoded without error", b, i)
			}
		}
	}
}
