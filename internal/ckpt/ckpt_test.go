package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
)

// buildStream encodes a small representative checkpoint image.
func buildStream(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	e, err := NewEncoder(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Section(SecCPU, []byte("cpu-registers")); err != nil {
		t.Fatal(err)
	}
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
	img := buildStream(t)
	secs, err := Sections(bytes.NewReader(img))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(secs[SecCPU]); got != "cpu-registers" {
		t.Errorf("SecCPU = %q", got)
	}
	want := bytes.Repeat([]byte("page-data "), 400)
	if !bytes.Equal(secs[SecPages], want) {
		t.Errorf("SecPages mismatch (%d bytes)", len(secs[SecPages]))
	}
	if sec, ok := secs[SecCycles]; !ok || len(sec) != 0 {
		t.Errorf("SecCycles = %v, %v", sec, ok)
	}
	n, err := StreamLen(len("cpu-registers"), len(want), 0)
	if err != nil || n != len(img) {
		t.Errorf("StreamLen = %d, %v; the encoder wrote %d bytes", n, err, len(img))
	}
}

// reheader rewrites the first section's flags and origLen words of a
// stream and recomputes its CRC, so the header words are the only
// malformation.
func reheader(img []byte, flags, origLen uint32) []byte {
	bad := append([]byte(nil), img...)
	h := bad[headerLen:]
	binary.LittleEndian.PutUint32(h[4:], flags)
	binary.LittleEndian.PutUint32(h[8:], origLen)
	rawLen := binary.LittleEndian.Uint32(h[12:])
	crc := crc32.ChecksumIEEE(h[:16])
	crc = crc32.Update(crc, crc32.IEEETable, h[sectionLen:sectionLen+rawLen])
	binary.LittleEndian.PutUint32(h[16:], crc)
	return bad
}

// TestFlagsAndLengthMismatchRejected: payloads are stored raw, so a
// section with any flag set, DEFLATE's bit 0 included, or with origLen
// other than rawLen is malformed, even under a valid CRC.
func TestFlagsAndLengthMismatchRejected(t *testing.T) {
	img := buildStream(t)
	n := uint32(len("cpu-registers"))
	if _, err := Sections(bytes.NewReader(reheader(img, 0, n))); err != nil {
		t.Fatalf("rewriting the header unchanged: %v", err)
	}
	for _, tc := range []struct {
		name           string
		flags, origLen uint32
	}{
		{"flags bit 0", 1, n},
		{"flags bit 0, origLen above rawLen", 1, 4 * n},
		{"flags bit 1", 2, n},
		{"origLen above rawLen", 0, n + 1},
		{"origLen below rawLen", 0, n - 1},
	} {
		if _, err := Sections(bytes.NewReader(reheader(img, tc.flags, tc.origLen))); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", tc.name, err)
		}
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	img := buildStream(t)
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
	img := buildStream(t)
	for n := 0; n < len(img); n++ {
		_, err := Sections(bytes.NewReader(img[:n]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(img))
		}
	}
}

func TestTrailingDataRejected(t *testing.T) {
	img := append(buildStream(t), 0x00)
	if _, err := Sections(bytes.NewReader(img)); !errors.Is(err, ErrFormat) {
		t.Errorf("trailing byte: err = %v, want ErrFormat", err)
	}
}

func TestUnknownSectionKindTolerated(t *testing.T) {
	var buf bytes.Buffer
	e, err := NewEncoder(&buf)
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
	e, err := NewEncoder(&buf)
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
	img := buildStream(t)
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
	// Pages 0-2 zero, 3-4 literal, 5-12 zero, 13-15 literal.
	pages := make([]*Page, 16)
	for i := range pages {
		if (i >= 3 && i < 5) || i >= 13 {
			pages[i] = new(Page)
			for j := range pages[i] {
				pages[i][j] = byte(i*7 + j)
			}
		}
	}
	packed := AppendPages(nil, pages)
	if len(packed) != PackedLen(pages) {
		t.Errorf("packed %d bytes, PackedLen says %d", len(packed), PackedLen(pages))
	}
	if want := 4*4 + 5*len(Page{}); len(packed) != want {
		t.Errorf("packed %d bytes, want %d (four run headers, five literal pages)", len(packed), want)
	}
	got := make([]*Page, len(pages))
	for i := range got {
		got[i] = new(Page) // prove zero runs really clear their entries
	}
	if err := UnpackPages(packed, got); err != nil {
		t.Fatal(err)
	}
	for i := range pages {
		if (pages[i] == nil) != (got[i] == nil) || (pages[i] != nil && *pages[i] != *got[i]) {
			t.Errorf("page %d differs after the round trip", i)
		}
	}
	if !bytes.Equal(AppendPages(nil, got), packed) {
		t.Error("re-encoding the unpacked pages changed the payload")
	}
}

func TestUnpackPagesRejectsBadRuns(t *testing.T) {
	dst := make([]*Page, 4)
	cases := map[string][]byte{
		"truncated header":  {0x01},
		"zero-length run":   {0, 0, 0, 0},
		"overflowing run":   {200, 0, 0, 0},
		"truncated literal": {0x01, 0, 0, 0x80, 1, 2, 3},
		"short coverage":    {0x02, 0, 0, 0},
	}
	for name, data := range cases {
		if err := UnpackPages(data, dst); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: err = %v, want ErrFormat", name, err)
		}
	}
}

func TestDecoderStopsAfterEOF(t *testing.T) {
	d, err := NewDecoder(bytes.NewReader(buildStream(t)))
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
