package asm

import (
	"testing"

	"repro/internal/vax"
)

func mustAssemble(t *testing.T, src string, origin uint32) *Program {
	t.Helper()
	p, err := Assemble(src, origin)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func TestSimpleEncodings(t *testing.T) {
	cases := []struct {
		src  string
		want []byte
	}{
		{"nop", []byte{0x01}},
		{"halt", []byte{0x00}},
		{"rei", []byte{0x02}},
		{"movl r0, r1", []byte{0xD0, 0x50, 0x51}},
		{"movl #5, r0", []byte{0xD0, 0x05, 0x50}},
		{"movl #0x100, r0", []byte{0xD0, 0x8F, 0x00, 0x01, 0x00, 0x00, 0x50}},
		{"movl (r2), r3", []byte{0xD0, 0x62, 0x53}},
		{"movl (r2)+, r3", []byte{0xD0, 0x82, 0x53}},
		{"movl -(sp), r3", []byte{0xD0, 0x7E, 0x53}},
		{"movl 4(r2), r3", []byte{0xD0, 0xA2, 0x04, 0x53}},
		{"movl @4(r2), r3", []byte{0xD0, 0xB2, 0x04, 0x53}},
		{"movl @#0x80000000, r1", []byte{0xD0, 0x9F, 0x00, 0x00, 0x00, 0x80, 0x51}},
		{"movl 0x300(r1), r0", []byte{0xD0, 0xC1, 0x00, 0x03, 0x50}},
		{"chmk #3", []byte{0xBC, 0x03}},
		{"mtpr r0, #18", []byte{0xDA, 0x50, 0x12}},
		{"pushl r7", []byte{0xDD, 0x57}},
		{"wait", []byte{0xFD, 0x30}},
		{"probevmr #1, (r0)", []byte{0xFD, 0x31, 0x01, 0x60}},
		{"movb #0x80, r0", []byte{0x90, 0x8F, 0x80, 0x50}},
		{"movw #0x1234, r0", []byte{0xB0, 0x8F, 0x34, 0x12, 0x50}},
	}
	for _, c := range cases {
		p := mustAssemble(t, c.src, 0)
		if len(p.Code) != len(c.want) {
			t.Errorf("%q: code %#v, want %#v", c.src, p.Code, c.want)
			continue
		}
		for i := range c.want {
			if p.Code[i] != c.want[i] {
				t.Errorf("%q: byte %d = %#x, want %#x", c.src, i, p.Code[i], c.want[i])
			}
		}
	}
}

// TestDotIsStatementStart: "." is the address of its statement's first
// byte in every operand, branch displacements resolved after the last
// line included.
func TestDotIsStatementStart(t *testing.T) {
	for _, c := range []struct {
		src  string
		want []byte
	}{
		{"sobgtr r1, .", []byte{0xF5, 0x51, 0xFD}},
		{"brw .", []byte{0x31, 0xFD, 0xFF}},
		{"brb .", []byte{0x11, 0xFE}},
		{"nop\nbrb .\nhalt", []byte{0x01, 0x11, 0xFE, 0x00}},
		{"nop\nbrb .+3\nhalt", []byte{0x01, 0x11, 0x01, 0x00}},
		{"nop\nmovl #., r0", []byte{0x01, 0xD0, 0x8F, 0x01, 0x10, 0x00, 0x00, 0x50}},
		{".long .", []byte{0x00, 0x10, 0x00, 0x00}},
		{"nop\n.long .", []byte{0x01, 0x01, 0x10, 0x00, 0x00}},
	} {
		p := mustAssemble(t, c.src, 0x1000)
		if string(p.Code) != string(c.want) {
			t.Errorf("%q: code % x, want % x", c.src, p.Code, c.want)
		}
	}
}

func TestBranchBackwardForward(t *testing.T) {
	p := mustAssemble(t, `
start:	nop
	brb start
	brb fwd
	nop
fwd:	halt
`, 0x1000)
	// start at 0x1000: nop(1), brb start: opcode at 0x1001, disp at
	// 0x1002, next pc 0x1003 -> disp = 0x1000-0x1003 = -3.
	if p.Code[2] != 0xFD {
		t.Errorf("backward disp = %#x, want 0xFD", p.Code[2])
	}
	// brb fwd at 0x1003: disp at 0x1004, nextPC 0x1005; fwd = 0x1006
	// (after the nop at 0x1005) -> disp = 1.
	if p.Code[4] != 0x01 {
		t.Errorf("forward disp = %#x, want 1", p.Code[4])
	}
	if p.MustSymbol("fwd") != 0x1006 {
		t.Errorf("fwd = %#x", p.MustSymbol("fwd"))
	}
}

func TestBranchOutOfRange(t *testing.T) {
	src := "brb far\n.space 300\nfar: halt\n"
	if _, err := Assemble(src, 0); err == nil {
		t.Fatal("expected out-of-range error")
	}
	src = "brw far\n.space 300\nfar: halt\n"
	if _, err := Assemble(src, 0); err != nil {
		t.Fatalf("brw should reach: %v", err)
	}
}

func TestDirectives(t *testing.T) {
	p := mustAssemble(t, `
	.org 0x10
val:	.long 0x11223344, after
	.word 0x5566
	.byte 1, 2
	.ascii "ab"
	.align 4
after:	.space 8
`, 0)
	if p.MustSymbol("val") != 0x10 {
		t.Errorf("val = %#x", p.MustSymbol("val"))
	}
	if p.Code[0x10] != 0x44 || p.Code[0x13] != 0x11 {
		t.Error(".long little-endian encoding wrong")
	}
	after := p.MustSymbol("after")
	if after%4 != 0 {
		t.Error(".align failed")
	}
	// Forward .long fixup.
	got := uint32(p.Code[0x14]) | uint32(p.Code[0x15])<<8 | uint32(p.Code[0x16])<<16 | uint32(p.Code[0x17])<<24
	if got != after {
		t.Errorf(".long forward = %#x, want %#x", got, after)
	}
	if p.Code[0x18] != 0x66 || p.Code[0x19] != 0x55 {
		t.Error(".word encoding wrong")
	}
	if p.Code[0x1C] != 'a' || p.Code[0x1D] != 'b' {
		t.Error(".ascii wrong")
	}
	if p.End() != after+8 {
		t.Errorf("End = %#x", p.End())
	}
}

func TestSymbolsAndExpressions(t *testing.T) {
	p := mustAssemble(t, `
base = 0x200
off = 8
	movl base+off(r1), r0
	movl #base-off, r2
here:	.long .
`, 0)
	// base+off = 0x208 fits in a word displacement.
	if p.Code[1] != 0xC1 {
		t.Errorf("expected word displacement, got %#x", p.Code[1])
	}
	d := uint32(p.Code[2]) | uint32(p.Code[3])<<8
	if d != 0x208 {
		t.Errorf("disp = %#x", d)
	}
	here := p.MustSymbol("here")
	got := uint32(p.Code[here]) | uint32(p.Code[here+1])<<8 | uint32(p.Code[here+2])<<16 | uint32(p.Code[here+3])<<24
	if got != here {
		t.Errorf(". = %#x, want %#x", got, here)
	}
}

func TestErrors(t *testing.T) {
	bad := []string{
		"bogus r0",
		"movl r0",                        // operand count
		"movl #5, #6",                    // immediate as result
		"moval r0, r1",                   // register in address context
		"jmp #5",                         // literal in address context
		".org 0x10\n.org 0x5",            // backwards org
		"dup: nop\ndup: nop",             // duplicate label
		"movl undefinedsym(r0), r0\nnop", // undefined in displacement is a fixup... must resolve
		".align 3",
		".byte undef_fwd", // never defined
	}
	for _, src := range bad {
		if _, err := Assemble(src, 0); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

// TestForwardReferences assembles a reference to a symbol defined on
// a later line in every data and immediate width: each is patched at
// the end, as a backward reference would be encoded (an immediate in
// its full width, since its value was unknown), and a value too wide
// for its byte or word is refused when it resolves.
func TestForwardReferences(t *testing.T) {
	for _, tc := range []struct {
		src, def string
		want     []byte
	}{
		{".long fwd", "fwd:", []byte{0x04, 0x01, 0x00, 0x00}},
		{".long fwd", "fwd = 0x12345678", []byte{0x78, 0x56, 0x34, 0x12}},
		{".word fwd", "fwd = 0xFFFE", []byte{0xFE, 0xFF}},
		{".word fwd", "fwd = -2", []byte{0xFE, 0xFF}},
		{".byte fwd, 7", "fwd = -2", []byte{0xFE, 0x07}},
		{"movl #fwd, r0", "fwd:", []byte{0xD0, 0x8F, 0x07, 0x01, 0x00, 0x00, 0x50}},
		{"movw #fwd, r0", "fwd = 0x1234", []byte{0xB0, 0x8F, 0x34, 0x12, 0x50}},
		{"movb #fwd, r0", "fwd = 5", []byte{0x90, 0x8F, 0x05, 0x50}},
	} {
		src := tc.src + "\n" + tc.def
		p, err := Assemble(src, 0x100)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if string(p.Code) != string(tc.want) {
			t.Errorf("%q: % x, want % x", src, p.Code, tc.want)
		}
	}
	for _, src := range []string{
		".word fwd\nfwd = 0x10000",
		".byte fwd\nfwd = 0x100",
		"movw #fwd, r0\nfwd = 0x12345",
		"movb #fwd, r0\nfwd = 0xFFFFFE00",
	} {
		if _, err := Assemble(src, 0); err == nil {
			t.Errorf("%q: a value too wide for its field was accepted", src)
		}
	}
}

func TestLabelsOnSameLine(t *testing.T) {
	p := mustAssemble(t, "a: b: nop\nc: halt", 0x100)
	if p.MustSymbol("a") != 0x100 || p.MustSymbol("b") != 0x100 || p.MustSymbol("c") != 0x101 {
		t.Errorf("labels: a=%#x b=%#x c=%#x", p.MustSymbol("a"), p.MustSymbol("b"), p.MustSymbol("c"))
	}
}

func TestComments(t *testing.T) {
	p := mustAssemble(t, "nop ; trailing\n; whole line\n\t.ascii \"a;b\" ; comment after string", 0)
	if len(p.Code) != 4 {
		t.Errorf("code length %d, want 4", len(p.Code))
	}
	if string(p.Code[1:4]) != "a;b" {
		t.Errorf("string with semicolon mangled: %q", p.Code[1:])
	}
}

func TestSymbolAPI(t *testing.T) {
	p := mustAssemble(t, "x: nop", 0x42)
	if v, ok := p.Symbol("x"); !ok || v != 0x42 {
		t.Error("Symbol lookup failed")
	}
	if _, ok := p.Symbol("y"); ok {
		t.Error("undefined symbol reported present")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustSymbol should panic on undefined")
		}
	}()
	p.MustSymbol("nope")
}

func TestExtendedOpcodes(t *testing.T) {
	p := mustAssemble(t, "wait\nprobevmw #3, (r1)", 0)
	if p.Code[0] != vax.ExtPrefix || p.Code[1] != byte(vax.OpWAIT&0xFF) {
		t.Error("WAIT encoding wrong")
	}
	if p.Code[2] != vax.ExtPrefix || p.Code[3] != byte(vax.OpPROBEVMW&0xFF) {
		t.Error("PROBEVMW encoding wrong")
	}
}

func TestNegativeDisplacement(t *testing.T) {
	p := mustAssemble(t, "movl -4(fp), r0", 0)
	if p.Code[1] != 0xAD || p.Code[2] != 0xFC {
		t.Errorf("encoding: %#v", p.Code)
	}
}

func TestZeroDisplacementParens(t *testing.T) {
	// "0(r1)" is displacement mode; "(r1)" is register deferred.
	p := mustAssemble(t, "movl 0(r1), r0", 0)
	if p.Code[1] != 0xA1 || p.Code[2] != 0 {
		t.Errorf("encoding: %#v", p.Code)
	}
}
