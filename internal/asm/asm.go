// Package asm is a small two-operand-syntax VAX assembler used to build
// the guest programs and the miniature guest operating system of this
// reproduction. It supports labels, numeric and symbolic expressions,
// the implemented addressing modes, and data directives, assembling to
// real VAX machine code in a single pass with fixups for forward
// references.
//
// Syntax summary (one statement per line, ';' starts a comment):
//
//	label:  movl  #5, r0          ; immediate / short literal
//	        movl  r0, (r1)        ; register, register deferred
//	        movl  (r1)+, -(sp)    ; autoincrement, autodecrement
//	        movl  8(r2), @4(r3)   ; displacement, displacement deferred
//	        movl  @#0x80000000, r4; absolute
//	        movl  var, r5         ; bare symbol = absolute reference
//	        brb   label           ; branch displacement
//	        chmk  #3
//	        .org   0x400
//	        .long  1, label, 3
//	        .word  5
//	        .byte  1, 2, 3
//	        .ascii "text"
//	        .space 64
//	        .align 4
//	sym     = 0x1234              ; symbol definition
package asm

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/vax"
)

// Program is the result of assembly.
type Program struct {
	Origin  uint32
	Code    []byte
	Symbols map[string]uint32
}

// End returns the first address past the assembled code.
func (p *Program) End() uint32 { return p.Origin + uint32(len(p.Code)) }

// Symbol returns the value of a defined symbol.
func (p *Program) Symbol(name string) (uint32, bool) {
	v, ok := p.Symbols[name]
	return v, ok
}

// MustSymbol returns a symbol value, panicking if undefined (for use in
// tests and fixed guest images).
func (p *Program) MustSymbol(name string) uint32 {
	v, ok := p.Symbols[name]
	if !ok {
		panic(fmt.Sprintf("asm: undefined symbol %q", name))
	}
	return v
}

// Error describes an assembly failure with its source line.
type Error struct {
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg) }

// operand access classes for the instruction table.
type access uint8

const (
	accRead  access = iota // value operand
	accWrite               // result operand (same encoding as read)
	accAddr                // address operand (MOVAx, JMP, JSB, PROBE base)
	accBranchB
	accBranchW
)

type opdesc struct {
	size int
	acc  access
}

type insn struct {
	opcode uint16
	ops    []opdesc
}

func rd(size int) opdesc  { return opdesc{size, accRead} }
func wr(size int) opdesc  { return opdesc{size, accWrite} }
func adr(size int) opdesc { return opdesc{size, accAddr} }

var instructions = map[string]insn{
	"halt":   {vax.OpHALT, nil},
	"nop":    {vax.OpNOP, nil},
	"rei":    {vax.OpREI, nil},
	"bpt":    {vax.OpBPT, nil},
	"rsb":    {vax.OpRSB, nil},
	"ldpctx": {vax.OpLDPCTX, nil},
	"svpctx": {vax.OpSVPCTX, nil},
	"xfc":    {vax.OpXFC, nil},

	"prober": {vax.OpPROBER, []opdesc{rd(1), rd(2), adr(1)}},
	"probew": {vax.OpPROBEW, []opdesc{rd(1), rd(2), adr(1)}},

	"wait":     {vax.OpWAIT, nil},
	"probevmr": {vax.OpPROBEVMR, []opdesc{rd(1), adr(1)}},
	"probevmw": {vax.OpPROBEVMW, []opdesc{rd(1), adr(1)}},

	"chmk": {vax.OpCHMK, []opdesc{rd(2)}},
	"chme": {vax.OpCHME, []opdesc{rd(2)}},
	"chms": {vax.OpCHMS, []opdesc{rd(2)}},
	"chmu": {vax.OpCHMU, []opdesc{rd(2)}},

	"movpsl": {vax.OpMOVPSL, []opdesc{wr(4)}},
	"mtpr":   {vax.OpMTPR, []opdesc{rd(4), rd(4)}},
	"mfpr":   {vax.OpMFPR, []opdesc{rd(4), wr(4)}},

	"movl":   {vax.OpMOVL, []opdesc{rd(4), wr(4)}},
	"movw":   {vax.OpMOVW, []opdesc{rd(2), wr(2)}},
	"movb":   {vax.OpMOVB, []opdesc{rd(1), wr(1)}},
	"movzbl": {vax.OpMOVZBL, []opdesc{rd(1), wr(4)}},
	"movzwl": {vax.OpMOVZWL, []opdesc{rd(2), wr(4)}},
	"moval":  {vax.OpMOVAL, []opdesc{adr(4), wr(4)}},
	"movab":  {vax.OpMOVAB, []opdesc{adr(1), wr(4)}},
	"pushl":  {vax.OpPUSHL, []opdesc{rd(4)}},
	"clrl":   {vax.OpCLRL, []opdesc{wr(4)}},
	"clrw":   {vax.OpCLRW, []opdesc{wr(2)}},
	"clrb":   {vax.OpCLRB, []opdesc{wr(1)}},
	"tstl":   {vax.OpTSTL, []opdesc{rd(4)}},
	"tstw":   {vax.OpTSTW, []opdesc{rd(2)}},
	"tstb":   {vax.OpTSTB, []opdesc{rd(1)}},
	"mnegl":  {vax.OpMNEGL, []opdesc{rd(4), wr(4)}},
	"mcomb":  {vax.OpMCOMB, []opdesc{rd(1), wr(1)}},
	"incl":   {vax.OpINCL, []opdesc{wr(4)}},
	"decl":   {vax.OpDECL, []opdesc{wr(4)}},

	"cmpl": {vax.OpCMPL, []opdesc{rd(4), rd(4)}},
	"cmpw": {vax.OpCMPW, []opdesc{rd(2), rd(2)}},
	"cmpb": {vax.OpCMPB, []opdesc{rd(1), rd(1)}},
	"bitl": {vax.OpBITL, []opdesc{rd(4), rd(4)}},

	"addl2": {vax.OpADDL2, []opdesc{rd(4), wr(4)}},
	"addl3": {vax.OpADDL3, []opdesc{rd(4), rd(4), wr(4)}},
	"subl2": {vax.OpSUBL2, []opdesc{rd(4), wr(4)}},
	"subl3": {vax.OpSUBL3, []opdesc{rd(4), rd(4), wr(4)}},
	"mull2": {vax.OpMULL2, []opdesc{rd(4), wr(4)}},
	"mull3": {vax.OpMULL3, []opdesc{rd(4), rd(4), wr(4)}},
	"divl2": {vax.OpDIVL2, []opdesc{rd(4), wr(4)}},
	"divl3": {vax.OpDIVL3, []opdesc{rd(4), rd(4), wr(4)}},
	"bisl2": {vax.OpBISL2, []opdesc{rd(4), wr(4)}},
	"bisl3": {vax.OpBISL3, []opdesc{rd(4), rd(4), wr(4)}},
	"bicl2": {vax.OpBICL2, []opdesc{rd(4), wr(4)}},
	"bicl3": {vax.OpBICL3, []opdesc{rd(4), rd(4), wr(4)}},
	"xorl2": {vax.OpXORL2, []opdesc{rd(4), wr(4)}},
	"xorl3": {vax.OpXORL3, []opdesc{rd(4), rd(4), wr(4)}},
	"ashl":  {vax.OpASHL, []opdesc{rd(1), rd(4), wr(4)}},

	"brb":   {vax.OpBRB, []opdesc{{1, accBranchB}}},
	"brw":   {vax.OpBRW, []opdesc{{2, accBranchW}}},
	"bneq":  {vax.OpBNEQ, []opdesc{{1, accBranchB}}},
	"beql":  {vax.OpBEQL, []opdesc{{1, accBranchB}}},
	"bgtr":  {vax.OpBGTR, []opdesc{{1, accBranchB}}},
	"bleq":  {vax.OpBLEQ, []opdesc{{1, accBranchB}}},
	"bgeq":  {vax.OpBGEQ, []opdesc{{1, accBranchB}}},
	"blss":  {vax.OpBLSS, []opdesc{{1, accBranchB}}},
	"bgtru": {vax.OpBGTRU, []opdesc{{1, accBranchB}}},
	"blequ": {vax.OpBLEQU, []opdesc{{1, accBranchB}}},
	"bvc":   {vax.OpBVC, []opdesc{{1, accBranchB}}},
	"bvs":   {vax.OpBVS, []opdesc{{1, accBranchB}}},
	"bcc":   {vax.OpBCC, []opdesc{{1, accBranchB}}},
	"bcs":   {vax.OpBCS, []opdesc{{1, accBranchB}}},
	"bgequ": {vax.OpBCC, []opdesc{{1, accBranchB}}}, // alias of BCC
	"blssu": {vax.OpBCS, []opdesc{{1, accBranchB}}}, // alias of BCS
	"bsbb":  {vax.OpBSBB, []opdesc{{1, accBranchB}}},
	"bsbw":  {vax.OpBSBW, []opdesc{{2, accBranchW}}},
	"blbs":  {vax.OpBLBS, []opdesc{rd(4), {1, accBranchB}}},
	"blbc":  {vax.OpBLBC, []opdesc{rd(4), {1, accBranchB}}},

	"jmp": {vax.OpJMP, []opdesc{adr(4)}},
	"jsb": {vax.OpJSB, []opdesc{adr(4)}},

	"calls":  {vax.OpCALLS, []opdesc{rd(4), adr(1)}},
	"movc3":  {vax.OpMOVC3, []opdesc{rd(2), adr(1), adr(1)}},
	"cmpc3":  {vax.OpCMPC3, []opdesc{rd(2), adr(1), adr(1)}},
	"insque": {vax.OpINSQUE, []opdesc{adr(1), adr(1)}},
	"remque": {vax.OpREMQUE, []opdesc{adr(1), wr(4)}},
	"ret":    {vax.OpRET, nil},
	// The bit-branch base is a variable bit field ("vb"): registers and
	// addressable operands are both legal.
	"bbs": {vax.OpBBS, []opdesc{rd(4), rd(1), {1, accBranchB}}},
	"bbc": {vax.OpBBC, []opdesc{rd(4), rd(1), {1, accBranchB}}},

	"cvtbl":  {vax.OpCVTBL, []opdesc{rd(1), wr(4)}},
	"cvtbw":  {vax.OpCVTBW, []opdesc{rd(1), wr(2)}},
	"cvtwl":  {vax.OpCVTWL, []opdesc{rd(2), wr(4)}},
	"cvtwb":  {vax.OpCVTWB, []opdesc{rd(2), wr(1)}},
	"cvtlb":  {vax.OpCVTLB, []opdesc{rd(4), wr(1)}},
	"cvtlw":  {vax.OpCVTLW, []opdesc{rd(4), wr(2)}},
	"acbl":   {vax.OpACBL, []opdesc{rd(4), rd(4), wr(4), {2, accBranchW}}},
	"aoblss": {vax.OpAOBLSS, []opdesc{rd(4), wr(4), {1, accBranchB}}},
	"aobleq": {vax.OpAOBLEQ, []opdesc{rd(4), wr(4), {1, accBranchB}}},
	"sobgeq": {vax.OpSOBGEQ, []opdesc{wr(4), {1, accBranchB}}},
	"sobgtr": {vax.OpSOBGTR, []opdesc{wr(4), {1, accBranchB}}},
}

var registers = map[string]int{
	"r0": 0, "r1": 1, "r2": 2, "r3": 3, "r4": 4, "r5": 5, "r6": 6, "r7": 7,
	"r8": 8, "r9": 9, "r10": 10, "r11": 11, "r12": 12, "r13": 13, "r14": 14,
	"r15": 15, "ap": 12, "fp": 13, "sp": 14, "pc": 15,
}

// fixup records a forward reference to patch once the symbol resolves.
type fixup struct {
	offset uint32 // position in code
	size   int    // 1, 2 or 4 bytes
	expr   string // expression to evaluate
	branch bool   // patch a branch displacement relative to nextPC
	nextPC uint32 // PC after the displacement field (branch fixups)
	line   int
	dot    uint32 // "." in expr: the statement's first byte
}

type assembler struct {
	origin  uint32
	code    []byte
	symbols map[string]uint32
	fixups  []fixup
	line    int
	dot     uint32 // address of the current statement's first byte
}

// Assemble translates source into a Program loaded at origin.
func Assemble(src string, origin uint32) (*Program, error) {
	a := &assembler{origin: origin, symbols: make(map[string]uint32)}
	for i, raw := range strings.Split(src, "\n") {
		a.line = i + 1
		if err := a.statement(raw); err != nil {
			return nil, err
		}
	}
	if err := a.resolve(); err != nil {
		return nil, err
	}
	return &Program{Origin: origin, Code: a.code, Symbols: a.symbols}, nil
}

func (a *assembler) errf(format string, args ...interface{}) error {
	return &Error{Line: a.line, Msg: fmt.Sprintf(format, args...)}
}

func (a *assembler) pc() uint32 { return a.origin + uint32(len(a.code)) }

// addFixup records f against the current line and statement.
func (a *assembler) addFixup(f fixup) {
	f.line, f.dot = a.line, a.dot
	a.fixups = append(a.fixups, f)
}

func (a *assembler) emit(bs ...byte) { a.code = append(a.code, bs...) }

func (a *assembler) emitLong(v uint32) {
	a.emit(byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func (a *assembler) emitWord(v uint16) { a.emit(byte(v), byte(v>>8)) }

func (a *assembler) define(name string, v uint32) error {
	if _, dup := a.symbols[name]; dup {
		return a.errf("duplicate symbol %q", name)
	}
	a.symbols[name] = v
	return nil
}

// statement assembles one source line.
func (a *assembler) statement(raw string) error {
	line := stripComment(raw)
	// Labels (possibly several) terminate with ':'.
	for {
		trimmed := strings.TrimSpace(line)
		idx := strings.Index(trimmed, ":")
		if idx <= 0 || !isIdent(trimmed[:idx]) {
			line = trimmed
			break
		}
		if err := a.define(trimmed[:idx], a.pc()); err != nil {
			return err
		}
		line = trimmed[idx+1:]
	}
	if line == "" {
		return nil
	}
	a.dot = a.pc()
	// Symbol definition: name = expr.
	if eq := strings.Index(line, "="); eq > 0 {
		name := strings.TrimSpace(line[:eq])
		if isIdent(name) {
			v, err := a.evalNow(strings.TrimSpace(line[eq+1:]))
			if err != nil {
				return err
			}
			return a.define(name, v)
		}
	}
	op, rest := splitWord(line)
	op = strings.ToLower(op)
	if strings.HasPrefix(op, ".") {
		return a.directive(op, rest)
	}
	ins, ok := instructions[op]
	if !ok {
		return a.errf("unknown instruction %q", op)
	}
	return a.instruction(ins, splitOperands(rest))
}

// dataSizes are the widths of the data directives' values.
var dataSizes = map[string]int{".long": 4, ".word": 2, ".byte": 1}

func (a *assembler) directive(name, rest string) error {
	args := splitOperands(rest)
	switch name {
	case ".org":
		if len(args) != 1 {
			return a.errf(".org takes one argument")
		}
		v, err := a.evalNow(args[0])
		if err != nil {
			return err
		}
		if v < a.pc() {
			return a.errf(".org %#x is behind current location %#x", v, a.pc())
		}
		for a.pc() < v {
			a.emit(0)
		}
		return nil
	case ".long", ".word", ".byte":
		for _, arg := range args {
			if err := a.emitExpr(arg, dataSizes[name]); err != nil {
				return err
			}
		}
		return nil
	case ".ascii", ".asciz":
		s, err := strconv.Unquote(strings.TrimSpace(rest))
		if err != nil {
			return a.errf("bad string: %v", err)
		}
		a.emit([]byte(s)...)
		if name == ".asciz" {
			a.emit(0)
		}
		return nil
	case ".space":
		if len(args) != 1 {
			return a.errf(".space takes one argument")
		}
		n, err := a.evalNow(args[0])
		if err != nil {
			return err
		}
		for i := uint32(0); i < n; i++ {
			a.emit(0)
		}
		return nil
	case ".align":
		if len(args) != 1 {
			return a.errf(".align takes one argument")
		}
		n, err := a.evalNow(args[0])
		if err != nil {
			return err
		}
		if n == 0 || n&(n-1) != 0 {
			return a.errf(".align argument must be a power of two")
		}
		for a.pc()%n != 0 {
			a.emit(0)
		}
		return nil
	}
	return a.errf("unknown directive %q", name)
}

func (a *assembler) instruction(ins insn, operands []string) error {
	if len(operands) != len(ins.ops) {
		return a.errf("want %d operands, got %d", len(ins.ops), len(operands))
	}
	if ins.opcode > 0xFF {
		a.emit(vax.ExtPrefix, byte(ins.opcode))
	} else {
		a.emit(byte(ins.opcode))
	}
	for i, text := range operands {
		if err := a.operand(strings.TrimSpace(text), ins.ops[i]); err != nil {
			return err
		}
	}
	return nil
}

// resolve patches every fixup now that all symbols are defined.
func (a *assembler) resolve() error {
	for _, f := range a.fixups {
		a.line, a.dot = f.line, f.dot
		v, err := a.evalNow(f.expr)
		if err != nil {
			return err
		}
		if f.branch {
			disp := int64(v) - int64(f.nextPC)
			switch f.size {
			case 1:
				if disp < -128 || disp > 127 {
					return a.errf("branch to %q out of byte range (%d)", f.expr, disp)
				}
				a.code[f.offset] = byte(int8(disp))
			case 2:
				if disp < -32768 || disp > 32767 {
					return a.errf("branch to %q out of word range (%d)", f.expr, disp)
				}
				a.code[f.offset] = byte(disp)
				a.code[f.offset+1] = byte(disp >> 8)
			case 4:
				// PC-relative longword displacement: always in range.
				d := uint32(disp)
				for i := 0; i < 4; i++ {
					a.code[f.offset+uint32(i)] = byte(d >> (8 * i))
				}
			}
			continue
		}
		if err := a.fits(v, f.size); err != nil {
			return err
		}
		for i := 0; i < f.size; i++ {
			a.code[f.offset+uint32(i)] = byte(v >> (8 * i))
		}
	}
	return nil
}
