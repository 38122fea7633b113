package asm

import (
	"strconv"
	"strings"
)

// Operand encoding: translate one operand's text into a VAX operand
// specifier for the given instruction table entry.

func (a *assembler) operand(text string, d opdesc) error {
	if text == "" {
		return a.errf("empty operand")
	}

	// Branch displacements: bare expression, encoded relative to the PC
	// after the displacement field.
	if d.acc == accBranchB || d.acc == accBranchW {
		size := 1
		if d.acc == accBranchW {
			size = 2
		}
		off := uint32(len(a.code))
		if size == 1 {
			a.emit(0)
		} else {
			a.emitWord(0)
		}
		a.addFixup(fixup{offset: off, size: size, expr: text, branch: true, nextPC: a.pc()})
		return nil
	}

	switch {
	case strings.HasPrefix(text, "#"):
		return a.immediate(text[1:], d)

	case strings.HasPrefix(text, "@#"):
		a.emit(0x9F)
		return a.emitExprLong(text[2:])

	case strings.HasPrefix(text, "@"):
		// Displacement deferred @disp(Rn), or PC-relative deferred
		// @expr (the operand's address is stored at expr).
		if disp, reg, ok := splitDisp(text[1:]); ok {
			return a.dispOperand(disp, reg, true)
		}
		a.emit(0xFF) // longword displacement deferred off PC
		off := uint32(len(a.code))
		a.emitLong(0)
		a.addFixup(fixup{offset: off, size: 4, expr: text[1:], branch: true, nextPC: a.pc()})
		return nil

	case strings.HasPrefix(text, "-(") && strings.HasSuffix(text, ")"):
		reg, ok := registers[strings.ToLower(text[2:len(text)-1])]
		if !ok {
			return a.errf("bad register in %q", text)
		}
		a.emit(byte(0x70 | reg))
		return nil

	case strings.HasPrefix(text, "(") && strings.HasSuffix(text, ")+"):
		reg, ok := registers[strings.ToLower(text[1:len(text)-2])]
		if !ok {
			return a.errf("bad register in %q", text)
		}
		a.emit(byte(0x80 | reg))
		return nil

	case strings.HasPrefix(text, "(") && strings.HasSuffix(text, ")"):
		reg, ok := registers[strings.ToLower(text[1:len(text)-1])]
		if !ok {
			return a.errf("bad register in %q", text)
		}
		a.emit(byte(0x60 | reg))
		return nil
	}

	// Plain register?
	if reg, ok := registers[strings.ToLower(text)]; ok {
		if d.acc == accAddr {
			return a.errf("register %q invalid in address context", text)
		}
		a.emit(byte(0x50 | reg))
		return nil
	}

	// Displacement mode disp(Rn)?
	if disp, reg, ok := splitDisp(text); ok {
		return a.dispOperand(disp, reg, false)
	}

	// Bare expression: absolute reference @#expr.
	a.emit(0x9F)
	return a.emitExprLong(text)
}

// immediate encodes #expr: a short literal when the value is known and
// fits in 6 bits (and the context allows it), otherwise autoincrement-
// of-PC immediate sized to the operand width.
func (a *assembler) immediate(expr string, d opdesc) error {
	if d.acc == accAddr {
		return a.errf("immediate invalid in address context")
	}
	if d.acc == accWrite {
		return a.errf("immediate invalid as a result operand")
	}
	if v, err := a.evalNow(expr); err == nil && v < 64 {
		a.emit(byte(v)) // short literal
		return nil
	}
	a.emit(0x8F)
	switch d.size {
	case 1:
		v, err := a.evalNow(expr)
		if err != nil {
			return err
		}
		if v > 0xFF && v < 0xFFFFFF00 {
			return a.errf("immediate %#x does not fit in a byte", v)
		}
		a.emit(byte(v))
	case 2:
		v, err := a.evalNow(expr)
		if err != nil {
			return err
		}
		if v > 0xFFFF && v < 0xFFFF0000 {
			return a.errf("immediate %#x does not fit in a word", v)
		}
		a.emitWord(uint16(v))
	default:
		return a.emitExprLong(expr)
	}
	return nil
}

// dispOperand encodes disp(Rn) or @disp(Rn). Known displacements pick
// the shortest form; forward references use the long form.
func (a *assembler) dispOperand(dispExpr string, reg int, deferred bool) error {
	var deferBit byte
	if deferred {
		deferBit = 0x10
	}
	if dispExpr == "" {
		dispExpr = "0"
	}
	v, err := a.evalNow(dispExpr)
	if err != nil {
		// Forward reference: long displacement with fixup.
		a.emit(0xE0|deferBit|byte(reg), 0, 0, 0, 0)
		a.addFixup(fixup{offset: uint32(len(a.code) - 4), size: 4, expr: dispExpr})
		return nil
	}
	s := int32(v)
	switch {
	case s >= -128 && s <= 127:
		a.emit(0xA0|deferBit|byte(reg), byte(int8(s)))
	case s >= -32768 && s <= 32767:
		a.emit(0xC0 | deferBit | byte(reg))
		a.emitWord(uint16(int16(s)))
	default:
		a.emit(0xE0 | deferBit | byte(reg))
		a.emitLong(v)
	}
	return nil
}

// emitExprLong emits a longword expression, via fixup if not yet known.
func (a *assembler) emitExprLong(expr string) error {
	if v, err := a.evalNow(expr); err == nil {
		a.emitLong(v)
		return nil
	}
	a.addFixup(fixup{offset: uint32(len(a.code)), size: 4, expr: expr})
	a.emitLong(0)
	return nil
}

// --- expression evaluation ---

// evalNow evaluates an expression using only symbols defined so far.
// "." names the address of the current statement's first byte, in
// every operand of an instruction or directive.
func (a *assembler) evalNow(expr string) (uint32, error) {
	expr = strings.TrimSpace(expr)
	if expr == "" {
		return 0, a.errf("empty expression")
	}
	var total uint32
	neg := false
	rest := expr
	first := true
	for rest != "" {
		rest = strings.TrimSpace(rest)
		if rest == "" {
			break
		}
		if !first || rest[0] == '+' || rest[0] == '-' {
			switch rest[0] {
			case '+':
				neg = false
				rest = rest[1:]
			case '-':
				neg = true
				rest = rest[1:]
			default:
				return 0, a.errf("expected operator in %q", expr)
			}
			rest = strings.TrimSpace(rest)
		}
		term, remainder, err := a.term(rest)
		if err != nil {
			return 0, err
		}
		if neg {
			total -= term
		} else {
			total += term
		}
		rest = remainder
		first = false
	}
	return total, nil
}

// term parses one number or symbol from the front of s.
func (a *assembler) term(s string) (uint32, string, error) {
	i := 0
	for i < len(s) && s[i] != '+' && s[i] != '-' && s[i] != ' ' && s[i] != '\t' {
		i++
	}
	tok, rest := s[:i], s[i:]
	if tok == "" {
		return 0, "", a.errf("empty term")
	}
	if tok == "." {
		return a.dot, rest, nil
	}
	if v, err := strconv.ParseUint(tok, 0, 64); err == nil {
		return uint32(v), rest, nil
	}
	if v, ok := a.symbols[tok]; ok {
		return v, rest, nil
	}
	return 0, "", a.errf("undefined symbol %q", tok)
}

// --- lexical helpers ---

func stripComment(s string) string {
	inStr := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case ';':
			if !inStr {
				return strings.TrimRight(s[:i], " \t\r")
			}
		}
	}
	return strings.TrimRight(s, " \t\r")
}

func splitWord(s string) (string, string) {
	s = strings.TrimSpace(s)
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			return s[:i], s[i+1:]
		}
	}
	return s, ""
}

// splitOperands splits on commas outside string quotes.
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	inStr := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			inStr = !inStr
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 && !inStr {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}

// splitDisp splits "disp(Rn)" into the displacement expression and the
// register number.
func splitDisp(s string) (string, int, bool) {
	open := strings.LastIndex(s, "(")
	if open < 0 || !strings.HasSuffix(s, ")") {
		return "", 0, false
	}
	reg, ok := registers[strings.ToLower(s[open+1:len(s)-1])]
	if !ok {
		return "", 0, false
	}
	return strings.TrimSpace(s[:open]), reg, true
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '$':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
