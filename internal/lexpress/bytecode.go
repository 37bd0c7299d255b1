package lexpress

import (
	"fmt"
	"strings"
)

// opcode is a lexpress VM instruction code. The compiler emits
// machine-independent byte code which the interpreter (vm.go) executes —
// mirroring the paper's compiler/interpreter split (§4.2).
type opcode uint8

const (
	opHalt opcode = iota
	// opPushConst pushes const pool entry A as a scalar value.
	opPushConst
	// opLoad pushes all values of source attribute (attr pool A).
	opLoad
	// opConcat pops A values and pushes the concatenation of their first
	// elements; absent if any operand is absent.
	opConcat
	// opAlt pops A values and pushes the first non-absent one.
	opAlt
	// opCall invokes builtin A with B arguments (popped; result pushed).
	opCall
	// opLookup translates the popped scalar through table A.
	opLookup
	// opGroup matches the popped scalar against pattern A and pushes
	// capture group B ("" / absent-on-no-match semantics: pushes absent).
	opGroup
	// opStore pops one value and assigns it to target attribute A unless
	// that attribute was already assigned (first-mapping-wins).
	opStore
	// opStoreN pops B values and assigns their concatenated value lists to
	// target attribute A (multi-valued set) unless already assigned.
	opStoreN
	// opJmp jumps to absolute instruction A.
	opJmp
	// opJmpFalse pops a value and jumps to A when it is falsy.
	opJmpFalse
	// opEq/opNe pop two scalars and push a boolean.
	opEq
	opNe
	// opLike pops a scalar and pushes whether it matches pattern A.
	opLike
	// opPresent pushes whether source attribute A is present.
	opPresent
	// opNot negates the popped boolean.
	opNot
)

var opNames = map[opcode]string{
	opHalt: "halt", opPushConst: "pushconst", opLoad: "load",
	opConcat: "concat", opAlt: "alt", opCall: "call", opLookup: "lookup",
	opGroup: "group", opStore: "store", opStoreN: "storen",
	opJmp: "jmp", opJmpFalse: "jmpfalse", opEq: "eq", opNe: "ne",
	opLike: "like", opPresent: "present", opNot: "not",
}

// builtin identifies a VM builtin function.
type builtin uint8

const (
	fnSubstr builtin = iota
	fnLower
	fnUpper
	fnTrim
	fnReplace
	fnValues
	fnJoin
	fnSplit
	fnCount
	fnFirst
)

var builtinByName = map[string]struct {
	fn    builtin
	arity int
}{
	"substr":  {fnSubstr, 3},
	"lower":   {fnLower, 1},
	"upper":   {fnUpper, 1},
	"trim":    {fnTrim, 1},
	"replace": {fnReplace, 3},
	"values":  {fnValues, 1},
	"join":    {fnJoin, 2},
	"split":   {fnSplit, 2},
	"count":   {fnCount, 1},
	"first":   {fnFirst, 1},
}

var builtinNames = map[builtin]string{
	fnSubstr: "substr", fnLower: "lower", fnUpper: "upper", fnTrim: "trim",
	fnReplace: "replace", fnValues: "values", fnJoin: "join",
	fnSplit: "split", fnCount: "count", fnFirst: "first",
}

// instr is one VM instruction.
type instr struct {
	Op   opcode
	A, B int
}

// program is a compiled code unit with its pools. Programs are immutable
// after compilation and safe for concurrent execution.
type program struct {
	code []instr
	// consts holds each constant as the scalar value opPushConst pushes;
	// values on the VM stack are never mutated, so one copy serves every
	// run.
	consts []value
	// attrs and keys are the attribute pool: attrs[i] is the name as the
	// mapping spells it, keys[i] its canonical record key.
	attrs    []string
	keys     []string
	patterns []*Pattern
	tables   []*tableDef
}

// Disassemble renders the program for the lexc tool.
func (p *program) Disassemble() string {
	var b strings.Builder
	for i, in := range p.code {
		fmt.Fprintf(&b, "%4d  %-10s", i, opNames[in.Op])
		switch in.Op {
		case opPushConst:
			fmt.Fprintf(&b, "%q", p.consts[in.A][0])
		case opLoad, opStore, opPresent:
			fmt.Fprintf(&b, "%s", p.attrs[in.A])
		case opStoreN:
			fmt.Fprintf(&b, "%s, n=%d", p.attrs[in.A], in.B)
		case opConcat, opAlt:
			fmt.Fprintf(&b, "n=%d", in.A)
		case opCall:
			fmt.Fprintf(&b, "%s/%d", builtinNames[builtin(in.A)], in.B)
		case opLookup:
			fmt.Fprintf(&b, "table %s", p.tables[in.A].Name)
		case opGroup:
			fmt.Fprintf(&b, "pattern %q group %d", p.patterns[in.A].String(), in.B)
		case opLike:
			fmt.Fprintf(&b, "pattern %q", p.patterns[in.A].String())
		case opJmp, opJmpFalse:
			fmt.Fprintf(&b, "-> %d", in.A)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
