// Package ckpt implements the durable checkpoint stream format: a
// versioned, sectioned container written over any io.Writer and read
// back from any io.Reader. Each section carries one state domain
// (CPU, MMU, physical pages, devices, console, cycle accounting) with
// its own CRC; the stream ends with a manifest section that
// cross-checks every section seen. The decoder rejects truncation,
// corruption, and unknown versions with typed errors — it never
// panics on arbitrary input.
//
// Wire layout (all fields little-endian u32):
//
//	file header   magic | version
//	section       kind | flags | origLen | rawLen | crc | payload[rawLen]
//	end section   kind=SecEnd, payload = count | (kind, crc) * count
//
// The CRC is IEEE CRC-32 over the 16 leading header bytes followed by
// the stored payload, so a flip anywhere in a section — header or
// body — is detected. flags bit 0 marks a DEFLATE-compressed payload
// (rawLen stored bytes inflate to exactly origLen). After the end
// section the stream must be at EOF; trailing bytes are an error.
package ckpt

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/vax"
)

const (
	// Magic identifies a checkpoint stream ("VAXC").
	Magic uint32 = 0x56415843
	// Version is the current format version. Decoders reject any
	// other value.
	Version uint32 = 1

	// flagDeflate marks a section payload stored DEFLATE-compressed.
	flagDeflate uint32 = 1 << 0

	// maxSectionBytes caps both the stored and the decompressed size
	// of a single section, so a corrupted length field cannot drive
	// an unbounded allocation.
	maxSectionBytes = 64 << 20

	// maxSections caps the section count so a corrupted stream cannot
	// spin the decoder forever.
	maxSections = 4096

	headerLen  = 8  // magic + version
	sectionLen = 20 // kind + flags + origLen + rawLen + crc
)

// SectionKind identifies one state domain within a checkpoint.
type SectionKind uint32

const (
	SecCPU     SectionKind = 1 // general registers, PC, PSL, stack pointers
	SecMMU     SectionKind = 2 // virtualized mapping registers
	SecPages   SectionKind = 3 // physical pages, zero-run elided
	SecDevices SectionKind = 4 // virtual disk image and controller
	SecConsole SectionKind = 5 // console buffers and interrupt enables
	SecCycles  SectionKind = 6 // cycle and tick accounting

	// SecEnd terminates the stream; its payload is the manifest.
	SecEnd SectionKind = 0xFFFFFFFF
)

func (k SectionKind) String() string {
	switch k {
	case SecCPU:
		return "cpu"
	case SecMMU:
		return "mmu"
	case SecPages:
		return "pages"
	case SecDevices:
		return "devices"
	case SecConsole:
		return "console"
	case SecCycles:
		return "cycles"
	case SecEnd:
		return "end"
	}
	return fmt.Sprintf("kind(%d)", uint32(k))
}

// Typed decode errors. Callers match with errors.Is.
var (
	ErrBadMagic  = errors.New("ckpt: bad magic")
	ErrVersion   = errors.New("ckpt: unsupported format version")
	ErrTruncated = errors.New("ckpt: truncated stream")
	ErrChecksum  = errors.New("ckpt: section checksum mismatch")
	ErrFormat    = errors.New("ckpt: malformed stream")
)

type manifestEntry struct {
	kind SectionKind
	crc  uint32
}

// Encoder writes a checkpoint stream section by section.
type Encoder struct {
	w        io.Writer
	compress bool
	manifest []manifestEntry
	closed   bool
	scratch  [sectionLen]byte
}

// NewEncoder writes the file header and returns an encoder. When
// compress is set, section payloads that shrink under DEFLATE are
// stored compressed.
func NewEncoder(w io.Writer, compress bool) (*Encoder, error) {
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], Magic)
	binary.LittleEndian.PutUint32(hdr[4:], Version)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	return &Encoder{w: w, compress: compress}, nil
}

// Section writes one CRC-protected section.
func (e *Encoder) Section(kind SectionKind, payload []byte) error {
	if e.closed {
		return fmt.Errorf("%w: section after Close", ErrFormat)
	}
	if kind == SecEnd {
		return fmt.Errorf("%w: reserved section kind", ErrFormat)
	}
	if len(payload) > maxSectionBytes {
		return fmt.Errorf("%w: section %v exceeds %d bytes", ErrFormat, kind, maxSectionBytes)
	}
	if len(e.manifest) >= maxSections {
		return fmt.Errorf("%w: too many sections", ErrFormat)
	}
	stored := payload
	flags := uint32(0)
	if e.compress && len(payload) > 64 {
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			return err
		}
		if _, err := zw.Write(payload); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
		if buf.Len() < len(payload) {
			stored = buf.Bytes()
			flags = flagDeflate
		}
	}
	crc, err := e.emit(kind, flags, uint32(len(payload)), stored)
	if err != nil {
		return err
	}
	e.manifest = append(e.manifest, manifestEntry{kind, crc})
	return nil
}

// emit writes one raw section record and returns its CRC.
func (e *Encoder) emit(kind SectionKind, flags, origLen uint32, stored []byte) (uint32, error) {
	h := e.scratch[:]
	binary.LittleEndian.PutUint32(h[0:], uint32(kind))
	binary.LittleEndian.PutUint32(h[4:], flags)
	binary.LittleEndian.PutUint32(h[8:], origLen)
	binary.LittleEndian.PutUint32(h[12:], uint32(len(stored)))
	crc := crc32.ChecksumIEEE(h[:16])
	crc = crc32.Update(crc, crc32.IEEETable, stored)
	binary.LittleEndian.PutUint32(h[16:], crc)
	if _, err := e.w.Write(h); err != nil {
		return 0, err
	}
	if len(stored) > 0 {
		if _, err := e.w.Write(stored); err != nil {
			return 0, err
		}
	}
	return crc, nil
}

// Close writes the end section whose manifest lists the kind and CRC
// of every section written, letting the decoder prove it saw the
// whole stream intact.
func (e *Encoder) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	m := make([]byte, 4+8*len(e.manifest))
	binary.LittleEndian.PutUint32(m[0:], uint32(len(e.manifest)))
	for i, ent := range e.manifest {
		binary.LittleEndian.PutUint32(m[4+8*i:], uint32(ent.kind))
		binary.LittleEndian.PutUint32(m[8+8*i:], ent.crc)
	}
	_, err := e.emit(SecEnd, 0, uint32(len(m)), m)
	return err
}

// Section is one decoded state-domain record.
type Section struct {
	Kind    SectionKind
	Payload []byte
}

// Decoder reads a checkpoint stream. Next returns sections in order
// and io.EOF after a validated end section.
type Decoder struct {
	r    io.Reader
	seen []manifestEntry
	done bool
}

// NewDecoder validates the file header and returns a decoder.
func NewDecoder(r io.Reader) (*Decoder, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != Magic {
		return nil, fmt.Errorf("%w: %#x", ErrBadMagic, got)
	}
	if got := binary.LittleEndian.Uint32(hdr[4:]); got != Version {
		return nil, fmt.Errorf("%w: %d", ErrVersion, got)
	}
	return &Decoder{r: r}, nil
}

// Next returns the next section, or io.EOF after the end section has
// been seen and validated. Unknown section kinds are returned to the
// caller (forward compatibility); the caller decides whether to skip
// them.
func (d *Decoder) Next() (*Section, error) {
	if d.done {
		return nil, io.EOF
	}
	if len(d.seen) >= maxSections {
		return nil, fmt.Errorf("%w: too many sections", ErrFormat)
	}
	var h [sectionLen]byte
	if _, err := io.ReadFull(d.r, h[:]); err != nil {
		return nil, fmt.Errorf("%w: section header: %v", ErrTruncated, err)
	}
	kind := SectionKind(binary.LittleEndian.Uint32(h[0:]))
	flags := binary.LittleEndian.Uint32(h[4:])
	origLen := binary.LittleEndian.Uint32(h[8:])
	rawLen := binary.LittleEndian.Uint32(h[12:])
	wantCRC := binary.LittleEndian.Uint32(h[16:])
	if origLen > maxSectionBytes || rawLen > maxSectionBytes {
		return nil, fmt.Errorf("%w: section %v claims %d/%d bytes", ErrFormat, kind, rawLen, origLen)
	}
	if flags&^flagDeflate != 0 {
		return nil, fmt.Errorf("%w: section %v has unknown flags %#x", ErrFormat, kind, flags)
	}
	if flags&flagDeflate == 0 && rawLen != origLen {
		return nil, fmt.Errorf("%w: section %v uncompressed length mismatch", ErrFormat, kind)
	}
	stored := make([]byte, rawLen)
	if _, err := io.ReadFull(d.r, stored); err != nil {
		return nil, fmt.Errorf("%w: section %v payload: %v", ErrTruncated, kind, err)
	}
	crc := crc32.ChecksumIEEE(h[:16])
	crc = crc32.Update(crc, crc32.IEEETable, stored)
	if crc != wantCRC {
		return nil, fmt.Errorf("%w: section %v", ErrChecksum, kind)
	}
	if kind == SecEnd {
		if err := d.finish(stored); err != nil {
			return nil, err
		}
		d.done = true
		return nil, io.EOF
	}
	d.seen = append(d.seen, manifestEntry{kind, wantCRC})
	payload := stored
	if flags&flagDeflate != 0 {
		inflated, err := inflate(stored, origLen)
		if err != nil {
			return nil, fmt.Errorf("%w: section %v: %v", ErrFormat, kind, err)
		}
		payload = inflated
	}
	return &Section{Kind: kind, Payload: payload}, nil
}

// finish validates the manifest against the sections actually seen
// and requires the underlying stream to end exactly here.
func (d *Decoder) finish(manifest []byte) error {
	if len(manifest) < 4 {
		return fmt.Errorf("%w: short manifest", ErrFormat)
	}
	count := binary.LittleEndian.Uint32(manifest[0:])
	if uint64(len(manifest)) != 4+8*uint64(count) {
		return fmt.Errorf("%w: manifest length mismatch", ErrFormat)
	}
	if int(count) != len(d.seen) {
		return fmt.Errorf("%w: manifest lists %d sections, stream had %d",
			ErrFormat, count, len(d.seen))
	}
	for i, ent := range d.seen {
		kind := SectionKind(binary.LittleEndian.Uint32(manifest[4+8*i:]))
		crc := binary.LittleEndian.Uint32(manifest[8+8*i:])
		if kind != ent.kind || crc != ent.crc {
			return fmt.Errorf("%w: manifest entry %d disagrees with section %v",
				ErrFormat, i, ent.kind)
		}
	}
	var one [1]byte
	if n, err := d.r.Read(one[:]); n != 0 || (err != nil && err != io.EOF) {
		if n != 0 {
			return fmt.Errorf("%w: trailing data after end section", ErrFormat)
		}
		return err
	}
	return nil
}

// inflate decompresses a DEFLATE payload that must expand to exactly
// want bytes.
func inflate(stored []byte, want uint32) ([]byte, error) {
	zr := flate.NewReader(bytes.NewReader(stored))
	defer zr.Close()
	out := make([]byte, want)
	if _, err := io.ReadFull(zr, out); err != nil {
		return nil, fmt.Errorf("inflate: %v", err)
	}
	// The compressed payload must not keep going past origLen.
	var one [1]byte
	if n, _ := zr.Read(one[:]); n != 0 {
		return nil, errors.New("inflate: payload longer than declared")
	}
	return out, nil
}

// Sections reads an entire stream into a kind-keyed map — the common
// consumption pattern for state restore. Duplicate kinds are an
// error.
func Sections(r io.Reader) (map[SectionKind][]byte, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	out := make(map[SectionKind][]byte)
	for {
		s, err := d.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if _, dup := out[s.Kind]; dup {
			return nil, fmt.Errorf("%w: duplicate section %v", ErrFormat, s.Kind)
		}
		out[s.Kind] = s.Payload
	}
}

// Page is one page of a page-run payload. A page list names a page by
// reference, nil for a zero page, so page lists that share unchanged
// pages cost one pointer per page.
type Page [vax.PageSize]byte

// StreamLen returns the length of an uncompressed stream whose sections
// carry payloads of the given lengths, the length the Encoder would
// write, without encoding. It rejects what Section would reject: a
// payload over the section size cap, or too many sections.
func StreamLen(payloadLens ...int) (int, error) {
	if len(payloadLens) > maxSections {
		return 0, fmt.Errorf("%w: too many sections", ErrFormat)
	}
	n := headerLen
	for _, l := range payloadLens {
		if l > maxSectionBytes {
			return 0, fmt.Errorf("%w: section exceeds %d bytes", ErrFormat, maxSectionBytes)
		}
		n += sectionLen + l
	}
	return n + sectionLen + 4 + 8*len(payloadLens), nil
}

// PackedLen returns the length of AppendPages' encoding of pages.
func PackedLen(pages []*Page) int {
	n := 0
	for p := 0; p < len(pages); {
		run := pageRun(pages[p:])
		n += 4
		if pages[p] != nil {
			n += run * vax.PageSize
		}
		p += run
	}
	return n
}

// AppendPages appends the page-run encoding of pages to dst: a u32 run
// header whose top bit marks a literal run (the header is followed by
// the run's pages) and whose low 31 bits count pages. Consecutive nil
// pages make one zero run, the header alone; consecutive non-nil pages
// make one literal run.
func AppendPages(dst []byte, pages []*Page) []byte {
	for p := 0; p < len(pages); {
		run := pageRun(pages[p:])
		if pages[p] == nil {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(run))
		} else {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(run)|1<<31)
			for _, pg := range pages[p : p+run] {
				dst = append(dst, pg[:]...)
			}
		}
		p += run
	}
	return dst
}

// pageRun returns how many leading pages share the first page's kind,
// zero or literal.
func pageRun(pages []*Page) int {
	zero := pages[0] == nil
	n := 1
	for n < len(pages) && (pages[n] == nil) == zero {
		n++
	}
	return n
}

// UnpackPages decodes a page-run payload into dst, whose length the
// runs must cover exactly. Zero runs set nil entries; literal pages
// alias data, which the caller must therefore not modify.
func UnpackPages(data []byte, dst []*Page) error {
	pages := len(dst)
	p := 0
	for len(data) > 0 {
		if len(data) < 4 {
			return fmt.Errorf("%w: truncated page-run header", ErrFormat)
		}
		h := binary.LittleEndian.Uint32(data)
		data = data[4:]
		n := int(h &^ (1 << 31))
		if n == 0 {
			return fmt.Errorf("%w: zero-length page run", ErrFormat)
		}
		if n > pages-p {
			return fmt.Errorf("%w: page run overflows image (%d pages at %d of %d)",
				ErrFormat, n, p, pages)
		}
		if h&(1<<31) != 0 {
			if len(data) < n*vax.PageSize {
				return fmt.Errorf("%w: truncated literal page run", ErrFormat)
			}
			for i := range n {
				dst[p+i] = (*Page)(data[:vax.PageSize])
				data = data[vax.PageSize:]
			}
		} else {
			clear(dst[p : p+n])
		}
		p += n
	}
	if p != pages {
		return fmt.Errorf("%w: page runs cover %d of %d pages", ErrFormat, p, pages)
	}
	return nil
}
