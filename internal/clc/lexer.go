// Package clc is a miniature OpenCL C front end. It lexes and parses the
// subset of OpenCL C needed to implement clCreateProgramWithSource /
// clBuildProgram faithfully: kernel signatures with address-space
// qualifiers, vector types, pointer declarators, and brace-balanced bodies.
//
// The node driver uses the extracted signatures to validate
// clCreateKernel and clSetKernelArg calls; execution itself binds to
// pre-registered kernel implementations by name (see internal/kernel),
// mirroring the paper's FPGA path where kernels are pre-built binaries
// selected by name (§III-D).
package clc

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexical tokens.
type TokenKind uint8

// Token kinds.
const (
	TokIdent TokenKind = iota + 1
	TokNumber
	TokString
	TokChar
	TokPunct
	TokEOF
)

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	Line int
	Col  int
}

// BuildError is a diagnostic produced while lexing or parsing program
// source; its format matches compiler build logs ("line:col: message").
type BuildError struct {
	Line int
	Col  int
	Msg  string
}

// Error implements error.
func (e *BuildError) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
	col  int
}

func newLexer(src string) *lexer {
	return &lexer{src: src, line: 1, col: 1}
}

func (l *lexer) errf(line, col int, format string, args ...any) *BuildError {
	return &BuildError{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *lexer) peek2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func (l *lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

// skipSpace consumes whitespace, comments and preprocessor directives.
// Directives are skipped whole-line (continuations honored); a real
// preprocessor is out of scope and benchmark kernels do not depend on one.
func (l *lexer) skipSpace() error {
	for l.pos < len(l.src) {
		c := l.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			l.advance()
		case c == '/' && l.peek2() == '/':
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		case c == '/' && l.peek2() == '*':
			startLine, startCol := l.line, l.col
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peek2() == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				return l.errf(startLine, startCol, "unterminated block comment")
			}
		case c == '#' && l.col == 1 || c == '#' && l.atLineStart():
			for l.pos < len(l.src) {
				ch := l.peek()
				if ch == '\\' && l.peek2() == '\n' {
					l.advance()
					l.advance()
					continue
				}
				if ch == '\n' {
					break
				}
				l.advance()
			}
		default:
			return nil
		}
	}
	return nil
}

// atLineStart reports whether only whitespace precedes the cursor on the
// current line, which is where preprocessor directives may begin.
func (l *lexer) atLineStart() bool {
	for i := l.pos - 1; i >= 0; i-- {
		switch l.src[i] {
		case '\n':
			return true
		case ' ', '\t':
			continue
		default:
			return false
		}
	}
	return true
}

func isIdentStart(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c))
}

func isIdentCont(c byte) bool {
	return c == '_' || unicode.IsLetter(rune(c)) || unicode.IsDigit(rune(c))
}

// next returns the next token.
func (l *lexer) next() (Token, error) {
	if err := l.skipSpace(); err != nil {
		return Token{}, err
	}
	if l.pos >= len(l.src) {
		return Token{Kind: TokEOF, Line: l.line, Col: l.col}, nil
	}
	line, col := l.line, l.col
	c := l.peek()
	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdentCont(l.peek()) {
			l.advance()
		}
		return Token{Kind: TokIdent, Text: l.src[start:l.pos], Line: line, Col: col}, nil
	case unicode.IsDigit(rune(c)) || (c == '.' && unicode.IsDigit(rune(l.peek2()))):
		start := l.pos
		for l.pos < len(l.src) {
			ch := l.peek()
			if isIdentCont(ch) || ch == '.' {
				l.advance()
				continue
			}
			// Exponent signs: 1e-5, 0x1p+3.
			if (ch == '+' || ch == '-') && l.pos > start {
				prev := l.src[l.pos-1]
				if prev == 'e' || prev == 'E' || prev == 'p' || prev == 'P' {
					l.advance()
					continue
				}
			}
			break
		}
		return Token{Kind: TokNumber, Text: l.src[start:l.pos], Line: line, Col: col}, nil
	case c == '"':
		start := l.pos
		l.advance()
		for l.pos < len(l.src) {
			ch := l.advance()
			if ch == '\\' && l.pos < len(l.src) {
				l.advance()
				continue
			}
			if ch == '"' {
				return Token{Kind: TokString, Text: l.src[start:l.pos], Line: line, Col: col}, nil
			}
		}
		return Token{}, l.errf(line, col, "unterminated string literal")
	case c == '\'':
		start := l.pos
		l.advance()
		for l.pos < len(l.src) {
			ch := l.advance()
			if ch == '\\' && l.pos < len(l.src) {
				l.advance()
				continue
			}
			if ch == '\'' {
				return Token{Kind: TokChar, Text: l.src[start:l.pos], Line: line, Col: col}, nil
			}
		}
		return Token{}, l.errf(line, col, "unterminated character literal")
	default:
		start := l.pos
		l.advance()
		if c >= utf8.RuneSelf {
			// A stray non-ASCII byte: keep the rune's encoding in
			// diagnostics rather than a slice of half a character.
			return Token{Kind: TokPunct, Text: string(rune(c)), Line: line, Col: col}, nil
		}
		return Token{Kind: TokPunct, Text: l.src[start:l.pos], Line: line, Col: col}, nil
	}
}

// Tokenize lexes the whole source, mainly for tests and tooling.
func Tokenize(src string) ([]Token, error) {
	lx := newLexer(src)
	// One allocation: a token spans at least a byte, and OpenCL C source
	// runs at about four; appending past the estimate still works.
	toks := make([]Token, 0, len(src)/4+1)
	for {
		t, err := lx.next()
		if err != nil {
			return toks, err
		}
		toks = append(toks, t)
		if t.Kind == TokEOF {
			return toks, nil
		}
	}
}

// scalarTypes lists the OpenCL C scalar types accepted in kernel
// signatures. Vector forms (float4, int2, ...) are validated separately.
var scalarTypes = map[string]bool{
	"bool": true, "char": true, "uchar": true, "short": true,
	"ushort": true, "int": true, "uint": true, "long": true,
	"ulong": true, "float": true, "double": true, "half": true,
	"size_t": true, "void": true,
	"int8_t": true, "uint8_t": true, "int32_t": true, "uint32_t": true,
	"int64_t": true, "uint64_t": true,
}

// IsTypeName reports whether ident names a scalar or vector OpenCL C type.
func IsTypeName(ident string) bool {
	if scalarTypes[ident] {
		return true
	}
	// Vector types: base type + lane count in {2,3,4,8,16}.
	for _, base := range [...]string{"char", "uchar", "short", "ushort", "int", "uint", "long", "ulong", "float", "double", "half"} {
		if rest, ok := strings.CutPrefix(ident, base); ok {
			switch rest {
			case "2", "3", "4", "8", "16":
				return true
			}
		}
	}
	return false
}
