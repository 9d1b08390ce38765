package core

import "github.com/haocl-project/haocl/internal/clc"

// Parsed exposes the parse a program was created from to the external tests.
func (p *Program) Parsed() *clc.Program { return p.parsed }

// ControlMsgBytes is the modelled size of a control frame.
const ControlMsgBytes = controlMsgBytes
