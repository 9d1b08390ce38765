package clc

import (
	"fmt"
	"strings"
)

// AddressSpace is an OpenCL address-space qualifier.
type AddressSpace uint8

// Address spaces. Private is the default for scalar (by-value) parameters.
const (
	SpacePrivate AddressSpace = iota + 1
	SpaceGlobal
	SpaceLocal
	SpaceConstant
)

// String names the address space as written in source.
func (s AddressSpace) String() string {
	switch s {
	case SpacePrivate:
		return "private"
	case SpaceGlobal:
		return "global"
	case SpaceLocal:
		return "local"
	case SpaceConstant:
		return "constant"
	default:
		return fmt.Sprintf("AddressSpace(%d)", uint8(s))
	}
}

// Param is one parameter of a kernel signature.
type Param struct {
	Name    string
	Type    string // scalar/vector type name, e.g. "float", "int4"
	Space   AddressSpace
	Pointer bool
	Const   bool
}

// String renders the parameter roughly as written.
func (p Param) String() string {
	var b strings.Builder
	if p.Space != SpacePrivate {
		b.WriteString("__")
		b.WriteString(p.Space.String())
		b.WriteByte(' ')
	}
	if p.Const {
		b.WriteString("const ")
	}
	b.WriteString(p.Type)
	if p.Pointer {
		b.WriteByte('*')
	}
	b.WriteByte(' ')
	b.WriteString(p.Name)
	return b.String()
}

// Kernel is one parsed __kernel function signature.
type Kernel struct {
	Name   string
	Params []Param
	Line   int
	// ReqdWorkGroupSize holds the reqd_work_group_size attribute if the
	// kernel declared one, else nil.
	ReqdWorkGroupSize []int
}

// Program is the result of parsing one translation unit. It is immutable:
// nothing writes to a Program, or to anything reachable from it, once Parse
// has returned. Cached hands the same Program to every session, tenant and
// in-process node that builds the same source, and Kernel hands out
// pointers into it, so a consumer that needs a variant copies first.
type Program struct {
	Kernels []Kernel
}

// Kernel returns the named kernel signature, if present.
func (p *Program) Kernel(name string) (*Kernel, bool) {
	for i := range p.Kernels {
		if p.Kernels[i].Name == name {
			return &p.Kernels[i], true
		}
	}
	return nil, false
}

// KernelNames lists kernel names in declaration order.
func (p *Program) KernelNames() []string {
	names := make([]string, len(p.Kernels))
	for i, k := range p.Kernels {
		names[i] = k.Name
	}
	return names
}

type parser struct {
	toks []Token
	pos  int
}

func (p *parser) cur() Token { return p.toks[p.pos] }
func (p *parser) peek() Token {
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}

func (p *parser) advance() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(t Token, format string, args ...any) *BuildError {
	return &BuildError{Line: t.Line, Col: t.Col, Msg: fmt.Sprintf(format, args...)}
}

// Parse lexes and parses src, returning every __kernel signature. Non-kernel
// top-level declarations (helper functions, typedefs, globals) are skipped
// with brace/paren matching; only kernels are validated in detail. Parse
// always parses; the runtime's build paths go through Cached.
func Parse(src string) (*Program, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	prog := &Program{}
	seen := make(map[string]int)
	for p.cur().Kind != TokEOF {
		t := p.cur()
		if t.Kind == TokIdent && (t.Text == "__kernel" || t.Text == "kernel") {
			k, err := p.parseKernel()
			if err != nil {
				return nil, err
			}
			if prevLine, dup := seen[k.Name]; dup {
				return nil, p.errf(t, "kernel %q redefined (first defined at line %d)", k.Name, prevLine)
			}
			seen[k.Name] = k.Line
			prog.Kernels = append(prog.Kernels, *k)
			continue
		}
		p.advance()
		// Skip over nested blocks so a '}' inside a helper function is
		// never misread as top-level structure.
		if t.Kind == TokPunct && (t.Text == "{" || t.Text == "(") {
			if err := p.skipBalanced(t); err != nil {
				return nil, err
			}
		}
	}
	if len(prog.Kernels) == 0 {
		return nil, &BuildError{Line: 1, Col: 1, Msg: "no __kernel functions found in program source"}
	}
	return prog, nil
}

// skipBalanced consumes tokens until the bracket opened by open closes.
// open has already been consumed.
func (p *parser) skipBalanced(open Token) error {
	var close string
	switch open.Text {
	case "{":
		close = "}"
	case "(":
		close = ")"
	case "[":
		close = "]"
	default:
		return p.errf(open, "internal: not a bracket: %q", open.Text)
	}
	depth := 1
	for depth > 0 {
		t := p.advance()
		if t.Kind == TokEOF {
			return p.errf(open, "unbalanced %q: reached end of source", open.Text)
		}
		if t.Kind != TokPunct {
			continue
		}
		switch t.Text {
		case open.Text:
			depth++
		case close:
			depth--
		}
	}
	return nil
}

// parseKernel parses from the __kernel keyword through the closing brace of
// the kernel body.
func (p *parser) parseKernel() (*Kernel, error) {
	kw := p.advance() // __kernel
	k := &Kernel{Line: kw.Line}

	// Optional attributes: __attribute__((reqd_work_group_size(x,y,z))).
	for p.cur().Kind == TokIdent && (p.cur().Text == "__attribute__" || p.cur().Text == "__attribute") {
		if err := p.parseAttribute(k); err != nil {
			return nil, err
		}
	}

	ret := p.advance()
	if ret.Kind != TokIdent || ret.Text != "void" {
		return nil, p.errf(ret, "kernel return type must be void, got %q", ret.Text)
	}
	name := p.advance()
	if name.Kind != TokIdent {
		return nil, p.errf(name, "expected kernel name, got %q", name.Text)
	}
	if IsTypeName(name.Text) || strings.HasPrefix(name.Text, "__") {
		return nil, p.errf(name, "invalid kernel name %q", name.Text)
	}
	k.Name = name.Text

	lp := p.advance()
	if lp.Kind != TokPunct || lp.Text != "(" {
		return nil, p.errf(lp, "expected '(' after kernel name %q", k.Name)
	}
	if err := p.parseParams(k); err != nil {
		return nil, err
	}

	lb := p.advance()
	if lb.Kind != TokPunct || lb.Text != "{" {
		return nil, p.errf(lb, "expected kernel body '{' for %q", k.Name)
	}
	if err := p.skipBalanced(lb); err != nil {
		return nil, err
	}
	return k, nil
}

func (p *parser) parseAttribute(k *Kernel) error {
	p.advance() // __attribute__
	lp := p.advance()
	if lp.Kind != TokPunct || lp.Text != "(" {
		return p.errf(lp, "expected '(' after __attribute__")
	}
	// Record reqd_work_group_size values if present while skipping the
	// balanced attribute list.
	depth := 1
	for depth > 0 {
		t := p.advance()
		if t.Kind == TokEOF {
			return p.errf(lp, "unterminated __attribute__")
		}
		if t.Kind == TokIdent && t.Text == "reqd_work_group_size" {
			var dims []int
			if p.cur().Text == "(" {
				p.advance()
				for p.cur().Text != ")" && p.cur().Kind != TokEOF {
					tok := p.advance()
					if tok.Kind == TokNumber {
						var v int
						if _, err := fmt.Sscanf(tok.Text, "%d", &v); err == nil {
							dims = append(dims, v)
						}
					}
				}
				p.advance() // ')'
			}
			k.ReqdWorkGroupSize = dims
			continue
		}
		if t.Kind == TokPunct {
			switch t.Text {
			case "(":
				depth++
			case ")":
				depth--
			}
		}
	}
	return nil
}

func (p *parser) parseParams(k *Kernel) error {
	// Empty parameter lists: "()" or "(void)".
	if p.cur().Text == ")" {
		p.advance()
		return nil
	}
	if p.cur().Kind == TokIdent && p.cur().Text == "void" && p.peek().Text == ")" {
		p.advance()
		p.advance()
		return nil
	}
	for {
		param, err := p.parseParam(k.Name)
		if err != nil {
			return err
		}
		k.Params = append(k.Params, *param)
		t := p.advance()
		if t.Kind != TokPunct {
			return p.errf(t, "expected ',' or ')' in parameter list of %q", k.Name)
		}
		switch t.Text {
		case ",":
			continue
		case ")":
			return nil
		default:
			return p.errf(t, "expected ',' or ')' in parameter list of %q, got %q", k.Name, t.Text)
		}
	}
}

func (p *parser) parseParam(kernelName string) (*Param, error) {
	param := &Param{Space: SpacePrivate}
	var sawType bool
	for {
		t := p.cur()
		if t.Kind != TokIdent {
			break
		}
		switch t.Text {
		case "__global", "global":
			param.Space = SpaceGlobal
			p.advance()
		case "__local", "local":
			param.Space = SpaceLocal
			p.advance()
		case "__constant", "constant":
			param.Space = SpaceConstant
			p.advance()
		case "__private", "private":
			param.Space = SpacePrivate
			p.advance()
		case "const":
			param.Const = true
			p.advance()
		case "restrict", "__restrict", "volatile":
			p.advance()
		case "unsigned":
			// Fold "unsigned <base>" into the u-prefixed type name.
			p.advance()
			base := p.cur()
			if base.Kind == TokIdent && scalarTypes[base.Text] {
				param.Type = "u" + base.Text
				p.advance()
			} else {
				param.Type = "uint"
			}
			sawType = true
		default:
			if IsTypeName(t.Text) {
				if sawType {
					return nil, p.errf(t, "duplicate type in parameter of %q", kernelName)
				}
				param.Type = t.Text
				sawType = true
				p.advance()
				continue
			}
			// An identifier that is not a type or qualifier must be the
			// parameter name; handled below.
			goto name
		}
	}
name:
	if !sawType {
		return nil, p.errf(p.cur(), "missing type in parameter of kernel %q", kernelName)
	}
	for p.cur().Kind == TokPunct && p.cur().Text == "*" {
		param.Pointer = true
		p.advance()
	}
	// Post-star qualifiers: "float * restrict x".
	for p.cur().Kind == TokIdent {
		switch p.cur().Text {
		case "restrict", "__restrict", "const", "volatile":
			p.advance()
			continue
		}
		break
	}
	nameTok := p.advance()
	if nameTok.Kind != TokIdent {
		return nil, p.errf(nameTok, "missing parameter name in kernel %q", kernelName)
	}
	param.Name = nameTok.Text
	// Array suffix "x[]" is pointer-equivalent.
	if p.cur().Text == "[" {
		open := p.advance()
		if err := p.skipBalanced(open); err != nil {
			return nil, err
		}
		param.Pointer = true
	}
	if param.Pointer && param.Space == SpacePrivate {
		return nil, p.errf(nameTok, "pointer parameter %q of kernel %q needs an address space qualifier (__global, __local or __constant)", param.Name, kernelName)
	}
	if !param.Pointer && param.Space != SpacePrivate {
		return nil, p.errf(nameTok, "non-pointer parameter %q of kernel %q cannot have address space %s", param.Name, kernelName, param.Space)
	}
	if param.Type == "void" && !param.Pointer {
		return nil, p.errf(nameTok, "parameter %q of kernel %q cannot have type void", param.Name, kernelName)
	}
	return param, nil
}

// ScalarSize reports the byte size of an OpenCL scalar/vector type name, or
// 0 for unknown types. Pointers are handles on the wire and have no
// host-visible size here.
func ScalarSize(typeName string) int {
	base := typeName
	lanes := 1
	for _, suffix := range [...]string{"16", "8", "4", "3", "2"} {
		if b, ok := strings.CutSuffix(typeName, suffix); ok && IsTypeName(typeName) && b != "" && !strings.ContainsAny(suffix, b) {
			if IsTypeName(b) {
				base = b
				switch suffix {
				case "2":
					lanes = 2
				case "3":
					lanes = 4 // OpenCL: 3-vectors occupy 4 lanes
				case "4":
					lanes = 4
				case "8":
					lanes = 8
				case "16":
					lanes = 16
				}
				break
			}
		}
	}
	var sz int
	switch base {
	case "bool", "char", "uchar", "int8_t", "uint8_t":
		sz = 1
	case "short", "ushort", "half":
		sz = 2
	case "int", "uint", "float", "int32_t", "uint32_t":
		sz = 4
	case "long", "ulong", "double", "size_t", "int64_t", "uint64_t":
		sz = 8
	default:
		return 0
	}
	return sz * lanes
}
