package ckpt

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// buildStream encodes a small representative checkpoint image.
func buildStream(t testing.TB, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	e, err := NewEncoder(&buf, compress)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Section(SecCPU, []byte("cpu-registers")); err != nil {
		t.Fatal(err)
	}
	// A payload long and repetitive enough that DEFLATE shrinks it.
	pages := bytes.Repeat([]byte("page-data "), 400)
	if err := e.Section(SecPages, pages); err != nil {
		t.Fatal(err)
	}
	if err := e.Section(SecCycles, []byte{}); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		img := buildStream(t, compress)
		secs, err := Sections(bytes.NewReader(img))
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if got := string(secs[SecCPU]); got != "cpu-registers" {
			t.Errorf("compress=%v: SecCPU = %q", compress, got)
		}
		want := bytes.Repeat([]byte("page-data "), 400)
		if !bytes.Equal(secs[SecPages], want) {
			t.Errorf("compress=%v: SecPages mismatch (%d bytes)", compress, len(secs[SecPages]))
		}
		if sec, ok := secs[SecCycles]; !ok || len(sec) != 0 {
			t.Errorf("compress=%v: SecCycles = %v, %v", compress, sec, ok)
		}
	}
}

func TestCompressionShrinksStream(t *testing.T) {
	raw := buildStream(t, false)
	packed := buildStream(t, true)
	if len(packed) >= len(raw) {
		t.Errorf("compressed stream %d bytes, raw %d", len(packed), len(raw))
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	img := buildStream(t, false)
	bad := append([]byte(nil), img...)
	bad[0] ^= 0xFF
	if _, err := Sections(bytes.NewReader(bad)); !errors.Is(err, ErrBadMagic) {
		t.Errorf("flipped magic: err = %v, want ErrBadMagic", err)
	}
	bad = append([]byte(nil), img...)
	bad[4] = 99
	if _, err := Sections(bytes.NewReader(bad)); !errors.Is(err, ErrVersion) {
		t.Errorf("future version: err = %v, want ErrVersion", err)
	}
}

func TestTruncationAtEveryPrefix(t *testing.T) {
	img := buildStream(t, true)
	for n := 0; n < len(img); n++ {
		_, err := Sections(bytes.NewReader(img[:n]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(img))
		}
	}
}

func TestTrailingDataRejected(t *testing.T) {
	img := append(buildStream(t, false), 0x00)
	if _, err := Sections(bytes.NewReader(img)); !errors.Is(err, ErrFormat) {
		t.Errorf("trailing byte: err = %v, want ErrFormat", err)
	}
}

func TestUnknownSectionKindTolerated(t *testing.T) {
	var buf bytes.Buffer
	e, err := NewEncoder(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Section(SectionKind(900), []byte("future-domain")); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	secs, err := Sections(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(secs[SectionKind(900)]); got != "future-domain" {
		t.Errorf("unknown kind payload = %q", got)
	}
}

func TestMissingEndSectionIsTruncation(t *testing.T) {
	var buf bytes.Buffer
	e, err := NewEncoder(&buf, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Section(SecCPU, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// No Close: the stream ends without the manifest.
	if _, err := Sections(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrTruncated) {
		t.Errorf("missing end section: err = %v, want ErrTruncated", err)
	}
}

func TestOversizeSectionRejected(t *testing.T) {
	img := buildStream(t, false)
	// Force the first section's rawLen (offset 8+12) to an absurd value.
	bad := append([]byte(nil), img...)
	bad[headerLen+12] = 0xFF
	bad[headerLen+13] = 0xFF
	bad[headerLen+14] = 0xFF
	bad[headerLen+15] = 0x7F
	if _, err := Sections(bytes.NewReader(bad)); err == nil {
		t.Error("2GB rawLen decoded without error")
	}
}

func TestPackPagesRoundTrip(t *testing.T) {
	const page = 512
	mem := make([]byte, 16*page)
	// Pages 0-2 zero, 3-4 literal, 5-12 zero, 13-15 literal.
	for i := 3 * page; i < 5*page; i++ {
		mem[i] = byte(i)
	}
	for i := 13 * page; i < 16*page; i++ {
		mem[i] = byte(i * 7)
	}
	packed, err := PackPages(mem, page)
	if err != nil {
		t.Fatal(err)
	}
	if len(packed) >= len(mem) {
		t.Errorf("packed %d bytes, raw %d: zero elision did nothing", len(packed), len(mem))
	}
	got := make([]byte, len(mem))
	for i := range got {
		got[i] = 0xAA // prove zero runs really clear their pages
	}
	if err := UnpackPages(packed, got, page); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, mem) {
		t.Error("unpacked image differs from original")
	}
}

// TestPageZeroMatchesByteLoop pins the word-at-a-time zero test to the
// plain byte loop: one non-zero byte at every offset of a page, and
// lengths that are not a multiple of the word size (the tail path).
func TestPageZeroMatchesByteLoop(t *testing.T) {
	byteLoop := func(p []byte) bool {
		for _, b := range p {
			if b != 0 {
				return false
			}
		}
		return true
	}
	for _, n := range []int{0, 1, 7, 8, 9, 15, 17, 511, 512, 513} {
		buf := make([]byte, n)
		if !pageZero(buf) {
			t.Fatalf("len %d: all-zero buffer reported non-zero", n)
		}
		for i := range buf {
			for _, v := range []byte{0x01, 0x80} {
				buf[i] = v
				if got, want := pageZero(buf), byteLoop(buf); got != want {
					t.Fatalf("len %d, byte %#x at %d: pageZero = %v, byte loop %v", n, v, i, got, want)
				}
				buf[i] = 0
			}
		}
	}
}

func TestUnpackPagesRejectsBadRuns(t *testing.T) {
	const page = 512
	dst := make([]byte, 4*page)
	cases := map[string][]byte{
		"truncated header":  {0x01},
		"zero-length run":   {0, 0, 0, 0},
		"overflowing run":   {200, 0, 0, 0},
		"truncated literal": {0x01, 0, 0, 0x80, 1, 2, 3},
		"short coverage":    {0x02, 0, 0, 0},
	}
	for name, data := range cases {
		if err := UnpackPages(data, dst, page); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}
}

func TestPackPagesRejectsRaggedImage(t *testing.T) {
	if _, err := PackPages(make([]byte, 700), 512); !errors.Is(err, ErrFormat) {
		t.Error("ragged image packed without error")
	}
}

func TestDecoderStopsAfterEOF(t *testing.T) {
	d, err := NewDecoder(bytes.NewReader(buildStream(t, false)))
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := d.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.Next(); err != io.EOF {
		t.Errorf("Next after EOF = %v", err)
	}
}
