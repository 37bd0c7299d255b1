package lexpress

import (
	"fmt"
	"strconv"
	"strings"
)

// value is the VM's universal value: a list of strings. Scalars are
// single-element lists; the empty list means "absent". This uniform model is
// what makes lexpress's multi-valued attribute processing compose with its
// string operations.
type value []string

func scalar(s string) value { return value{s} }

// truthy reports whether v counts as true: present with a non-empty first
// element. The VM encodes booleans as "1" / absent.
func (v value) truthy() bool { return len(v) > 0 && v[0] != "" }

// trueValue is the VM's one "true"; like every value on the stack it is
// never mutated.
var trueValue = value{"1"}

func boolValue(b bool) value {
	if b {
		return trueValue
	}
	return nil
}

func (v value) first() (string, bool) {
	if len(v) == 0 {
		return "", false
	}
	return v[0], true
}

// vm executes compiled lexpress programs. One vm serves a whole translation
// (the mapping body, the partition constraint and every closure rule); its
// stack is reused from run to run.
type vm struct {
	stack []value
}

// newVM returns a vm whose stack has room for typical programs.
func newVM() vm { return vm{stack: make([]value, 0, 16)} }

func (m *vm) push(v value) { m.stack = append(m.stack, v) }

func (m *vm) pop() value {
	v := m.stack[len(m.stack)-1]
	m.stack = m.stack[:len(m.stack)-1]
	return v
}

// top returns the last n stack values in push order, as a view of the
// stack itself; replace pops them and pushes v.
func (m *vm) top(n int) []value { return m.stack[len(m.stack)-n:] }

func (m *vm) replace(n int, v value) {
	m.stack = append(m.stack[:len(m.stack)-n], v)
}

// maxSteps bounds program execution defensively (compiled programs are
// loop-free except for the jumps the compiler itself emits, so this is only
// a guard against compiler bugs).
const maxSteps = 1 << 20

// run executes prog with src as the attribute source. Stores are written to
// out, first mapping wins: an attribute out already holds is never
// overwritten (the caller shares out across the statement program and the
// closure rules).
func (m *vm) run(prog *program, src Record, out Record) error {
	pc := 0
	steps := 0
	for {
		if steps++; steps > maxSteps {
			return fmt.Errorf("lexpress: program exceeded %d steps", maxSteps)
		}
		if pc < 0 || pc >= len(prog.code) {
			return fmt.Errorf("lexpress: pc %d out of range", pc)
		}
		in := prog.code[pc]
		pc++
		switch in.Op {
		case opHalt:
			return nil
		case opPushConst:
			m.push(prog.consts[in.A])
		case opLoad:
			m.push(value(src[prog.keys[in.A]]))
		case opConcat:
			m.replace(in.A, concat(m.top(in.A)))
		case opAlt:
			var chosen value
			for _, o := range m.top(in.A) {
				if len(o) > 0 {
					chosen = o
					break
				}
			}
			m.replace(in.A, chosen)
		case opCall:
			if err := m.call(builtin(in.A), in.B); err != nil {
				return err
			}
		case opLookup:
			t := prog.tables[in.A]
			v := m.pop()
			s, present := v.first()
			if !present {
				m.push(nil)
				break
			}
			if mapped, ok := t.Entries[s]; ok {
				m.push(scalar(mapped))
			} else if t.HasDefault {
				m.push(scalar(t.Default))
			} else {
				m.push(nil) // untranslatable: absent, resiliently
			}
		case opGroup:
			v := m.pop()
			s, present := v.first()
			if !present {
				m.push(nil)
				break
			}
			g, ok := prog.patterns[in.A].group(s, in.B)
			if !ok {
				m.push(nil) // dirty data: mapping yields absent, not error
				break
			}
			m.push(scalar(g))
		case opStore:
			m.store(prog.keys[in.A], m.top(1), out)
			m.stack = m.stack[:len(m.stack)-1]
		case opStoreN:
			m.store(prog.keys[in.A], m.top(in.B), out)
			m.stack = m.stack[:len(m.stack)-in.B]
		case opJmp:
			pc = in.A
		case opJmpFalse:
			if !m.pop().truthy() {
				pc = in.A
			}
		case opEq, opNe:
			r := m.pop()
			l := m.pop()
			ls, _ := l.first()
			rs, _ := r.first()
			eq := strings.EqualFold(ls, rs) && (len(l) > 0) == (len(r) > 0)
			if in.Op == opNe {
				eq = !eq
			}
			m.push(boolValue(eq))
		case opLike:
			v := m.pop()
			s, present := v.first()
			m.push(boolValue(present && prog.patterns[in.A].Like(s)))
		case opPresent:
			m.push(boolValue(len(src[prog.keys[in.A]]) > 0))
		case opNot:
			m.push(boolValue(!m.pop().truthy()))
		default:
			return fmt.Errorf("lexpress: unknown opcode %d", in.Op)
		}
	}
}

// concat is the concatenation of the parts' first elements, absent when any
// part is absent.
func concat(parts []value) value {
	n := 0
	for _, p := range parts {
		if len(p) == 0 {
			return nil
		}
		n += len(p[0])
	}
	if len(parts) == 1 {
		return scalar(parts[0][0])
	}
	var b strings.Builder
	b.Grow(n)
	for _, p := range parts {
		b.WriteString(p[0])
	}
	return scalar(b.String())
}

// store implements first-mapping-wins assignment of the concatenated value
// lists vs to the attribute with canonical key k: the attribute is set by
// the first statement that produces a value for it; later statements in the
// same translation are skipped. Absent values do not claim the slot, so
// ordered special cases and fallbacks compose naturally.
func (m *vm) store(k string, vs []value, out Record) {
	if _, assigned := out[k]; assigned {
		return
	}
	// Empty strings cannot be attribute values (LDAP forbids them), so a
	// mapping that evaluates to "" leaves the attribute unclaimed — the
	// next alternate or special case may still set it.
	n := 0
	for _, v := range vs {
		for _, s := range v {
			if s != "" {
				n++
			}
		}
	}
	if n == 0 {
		return
	}
	kept := make([]string, 0, n)
	for _, v := range vs {
		for _, s := range v {
			if s != "" {
				kept = append(kept, s)
			}
		}
	}
	out[k] = kept
}

// call invokes a builtin on the top nargs stack values and replaces them
// with its result.
func (m *vm) call(fn builtin, nargs int) error {
	args := m.top(nargs)
	var r value
	switch fn {
	case fnSubstr:
		s, ok := args[0].first()
		if !ok {
			break
		}
		start, err1 := atoiValue(args[1])
		length, err2 := atoiValue(args[2])
		if err1 != nil || err2 != nil {
			break
		}
		r = scalar(substr(s, start, length))
	case fnLower:
		r = mapScalar(args[0], strings.ToLower)
	case fnUpper:
		r = mapScalar(args[0], strings.ToUpper)
	case fnTrim:
		r = mapScalar(args[0], strings.TrimSpace)
	case fnReplace:
		s, ok := args[0].first()
		if !ok {
			break
		}
		old, _ := args[1].first()
		with, _ := args[2].first()
		if old == "" {
			r = scalar(s)
			break
		}
		r = scalar(strings.ReplaceAll(s, old, with))
	case fnJoin:
		sep, _ := args[1].first()
		if len(args[0]) == 0 {
			break
		}
		r = scalar(strings.Join(args[0], sep))
	case fnSplit:
		s, ok := args[0].first()
		if !ok {
			break
		}
		sep, _ := args[1].first()
		if sep == "" {
			r = scalar(s)
			break
		}
		r = value(strings.Split(s, sep))
	case fnCount:
		r = scalar(strconv.Itoa(len(args[0])))
	case fnFirst:
		s, ok := args[0].first()
		if !ok {
			break
		}
		r = scalar(s)
	case fnValues:
		r = args[0]
	default:
		return fmt.Errorf("lexpress: unknown builtin %d", fn)
	}
	m.replace(nargs, r)
	return nil
}

func mapScalar(v value, f func(string) string) value {
	if len(v) == 0 {
		return nil
	}
	out := make(value, len(v))
	for i, s := range v {
		out[i] = f(s)
	}
	return out
}

func atoiValue(v value) (int, error) {
	s, ok := v.first()
	if !ok {
		return 0, fmt.Errorf("absent numeric argument")
	}
	return strconv.Atoi(s)
}

// substr is a clamping substring: out-of-range indices yield what is there
// rather than failing (dirty-data resilience).
func substr(s string, start, length int) string {
	if start < 0 {
		start = 0
	}
	if start >= len(s) || length <= 0 {
		return ""
	}
	end := start + length
	if end > len(s) {
		end = len(s)
	}
	return s[start:end]
}

// runExpr executes an expression program and returns its value.
func (m *vm) runExpr(prog *program, src Record) (value, error) {
	m.stack = m.stack[:0]
	if err := m.run(prog, src, nil); err != nil {
		return nil, err
	}
	if len(m.stack) == 0 {
		return nil, nil
	}
	return m.stack[len(m.stack)-1], nil
}

// runCond executes a condition program.
func (m *vm) runCond(prog *program, src Record) (bool, error) {
	v, err := m.runExpr(prog, src)
	if err != nil {
		return false, err
	}
	return v.truthy(), nil
}
