// Package lexpress implements the schema translation and integration
// language of MetaComm (paper §4.2 and the cited technical report
// "Mapping updates for heterogeneous data repositories").
//
// lexpress consists of:
//
//   - a declarative language for specifying the relationship between two
//     schemas (string operations, table translations, alternate attribute
//     mappings, multi-valued attribute processing, pattern matching);
//   - a compiler that generates machine-independent byte code;
//   - an interpreter (a small stack VM) for executing the byte codes.
//
// On top of the per-pair mappings the package provides the transitive
// closure of attribute dependencies with the paper's first-mapping-wins
// conflict resolution, partitioning constraints that route updates as
// add/modify/delete/skip per target, and conditional (reapplied) update
// detection via the Originator mapping characteristic.
//
// This file implements the pattern matcher used by `match`/`like`/`group`:
// literals, '.', character classes ([a-z0-9], negation), the postfix
// operators '*', '+', '?', capturing groups and alternation, matched byte by
// byte against the whole input. A pattern compiles once into a small
// backtracking program (byte, any, class, split, jmp, save, and a
// loop-progress check) that runs on one explicit stack under a step budget
// proportional to program length × input length, so a match allocates
// nothing and an exponential pattern yields "no match" instead of a stall.
// Patterns let mappings stay resilient against dirty data and be refined
// incrementally with special cases.
package lexpress

import (
	"errors"
	"fmt"
)

// Pattern is a compiled lexpress pattern: a small backtracking program over
// bytes (see pcompiler and run). Patterns are immutable after compilation and
// safe for concurrent use.
type Pattern struct {
	src     string
	prog    []pinst
	classes []byteSet
	// groups is the number of capturing groups.
	groups int
	// nregs is the register file size: two capture slots per group (group
	// i at 2i, 2i+1; slots 0 and 1 unused) followed by one loop-progress
	// mark per loop whose body can match the empty string.
	nregs int
}

type pkind int

const (
	pLiteral pkind = iota // single byte
	pAny                  // .
	pClass                // [...]
	pGroup                // ( alt | alt )
)

type pnode struct {
	kind pkind
	ch   byte
	// class
	negate bool
	ranges [][2]byte
	// group
	alts  [][]pnode
	index int // capture index (1-based)
	// repetition: 0 = exactly once, '*', '+', '?'
	rep byte
}

// CompilePattern parses a pattern string.
func CompilePattern(src string) (*Pattern, error) {
	p := &patternParser{src: src}
	nodes, err := p.parseAlt(false)
	if err != nil {
		return nil, fmt.Errorf("lexpress: pattern %q: %v", src, err)
	}
	if p.pos != len(src) {
		return nil, fmt.Errorf("lexpress: pattern %q: unexpected %q", src, src[p.pos:])
	}
	return compileProgram(src, nodes, p.groups), nil
}

// MustCompilePattern panics on error; for literals in the mapping library.
func MustCompilePattern(src string) *Pattern {
	p, err := CompilePattern(src)
	if err != nil {
		panic(err)
	}
	return p
}

// String returns the pattern source.
func (p *Pattern) String() string { return p.src }

// Groups returns the number of capturing groups.
func (p *Pattern) Groups() int { return p.groups }

type patternParser struct {
	src    string
	pos    int
	groups int
}

func (p *patternParser) parseAlt(inGroup bool) ([]pnode, error) {
	// A sequence; alternation handled at group level. The top level is an
	// implicit group without capture.
	var seq []pnode
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch c {
		case ')', '|':
			if !inGroup {
				return nil, fmt.Errorf("unexpected %q", string(c))
			}
			return seq, nil
		case '(':
			p.pos++
			p.groups++
			g := pnode{kind: pGroup, index: p.groups}
			for {
				alt, err := p.parseAlt(true)
				if err != nil {
					return nil, err
				}
				g.alts = append(g.alts, alt)
				if p.pos >= len(p.src) {
					return nil, errors.New("unterminated group")
				}
				if p.src[p.pos] == '|' {
					p.pos++
					continue
				}
				break
			}
			p.pos++ // consume ')'
			seq = append(seq, p.withRep(g))
		case '[':
			n, err := p.parseClass()
			if err != nil {
				return nil, err
			}
			seq = append(seq, p.withRep(n))
		case '.':
			p.pos++
			seq = append(seq, p.withRep(pnode{kind: pAny}))
		case '*', '+', '?':
			return nil, fmt.Errorf("dangling %q", string(c))
		case '\\':
			if p.pos+1 >= len(p.src) {
				return nil, errors.New("trailing backslash")
			}
			p.pos += 2
			seq = append(seq, p.withRep(pnode{kind: pLiteral, ch: p.src[p.pos-1]}))
		default:
			p.pos++
			seq = append(seq, p.withRep(pnode{kind: pLiteral, ch: c}))
		}
	}
	if inGroup {
		return nil, errors.New("unterminated group")
	}
	return seq, nil
}

func (p *patternParser) withRep(n pnode) pnode {
	if p.pos < len(p.src) {
		switch p.src[p.pos] {
		case '*', '+', '?':
			n.rep = p.src[p.pos]
			p.pos++
		}
	}
	return n
}

func (p *patternParser) parseClass() (pnode, error) {
	p.pos++ // consume '['
	n := pnode{kind: pClass}
	if p.pos < len(p.src) && p.src[p.pos] == '^' {
		n.negate = true
		p.pos++
	}
	for {
		if p.pos >= len(p.src) {
			return n, errors.New("unterminated class")
		}
		c := p.src[p.pos]
		if c == ']' && len(n.ranges) > 0 {
			p.pos++
			return n, nil
		}
		if c == '\\' {
			if p.pos+1 >= len(p.src) {
				return n, errors.New("trailing backslash in class")
			}
			p.pos++
			c = p.src[p.pos]
		}
		p.pos++
		lo, hi := c, c
		if p.pos+1 < len(p.src) && p.src[p.pos] == '-' && p.src[p.pos+1] != ']' {
			hi = p.src[p.pos+1]
			p.pos += 2
			if hi < lo {
				return n, fmt.Errorf("inverted range %c-%c", lo, hi)
			}
		}
		n.ranges = append(n.ranges, [2]byte{lo, hi})
	}
}

// byteSet is a character class as a 256-bit set.
type byteSet [4]uint64

func (b *byteSet) add(c byte)      { b[c>>6] |= 1 << (c & 63) }
func (b *byteSet) has(c byte) bool { return b[c>>6]&(1<<(c&63)) != 0 }
func (b *byteSet) invert() {
	for i := range b {
		b[i] = ^b[i]
	}
}
func (b *byteSet) addRange(lo, hi byte) {
	for c := int(lo); c <= int(hi); c++ {
		b.add(byte(c))
	}
}

// pop is a pattern-program instruction code.
type pop uint8

const (
	iByte  pop = iota // consume byte c
	iAny              // consume any byte
	iClass            // consume a byte in classes[x]
	iSplit            // continue at x; on backtrack, at y
	iJmp              // continue at x
	iSave             // regs[x] = pos (undone on backtrack)
	iCheck            // fail when regs[x] == pos: a loop iteration consumed nothing
	iMatch            // succeed when the whole input is consumed
)

// pinst is one pattern-program instruction.
type pinst struct {
	op   pop
	c    byte
	x, y int
}

// pcompiler lowers the parsed node tree to a program whose backtracking
// order is the node tree's: alternatives left to right, repetitions greedy,
// so the first match the program finds is the one a depth-first walk of the
// tree finds, captures included.
type pcompiler struct {
	p *Pattern
}

func compileProgram(src string, nodes []pnode, groups int) *Pattern {
	c := &pcompiler{p: &Pattern{src: src, groups: groups, nregs: 2 * (groups + 1)}}
	c.seq(nodes)
	c.emit(pinst{op: iMatch})
	return c.p
}

func (c *pcompiler) emit(in pinst) int {
	c.p.prog = append(c.p.prog, in)
	return len(c.p.prog) - 1
}

// here is the index of the next instruction.
func (c *pcompiler) here() int { return len(c.p.prog) }

func (c *pcompiler) seq(nodes []pnode) {
	for i := range nodes {
		c.node(&nodes[i])
	}
}

func (c *pcompiler) node(n *pnode) {
	switch n.rep {
	case 0:
		c.one(n)
	case '?':
		// Greedy: one occurrence first, then none.
		split := c.emit(pinst{op: iSplit})
		c.p.prog[split].x = c.here()
		c.one(n)
		c.p.prog[split].y = c.here()
	case '*':
		loop := c.emit(pinst{op: iSplit})
		c.p.prog[loop].x = c.here()
		c.iteration(n)
		c.emit(pinst{op: iJmp, x: loop})
		c.p.prog[loop].y = c.here()
	case '+':
		top := c.here()
		c.iteration(n)
		c.emit(pinst{op: iSplit, x: top, y: c.here() + 1})
	}
}

// iteration emits one loop iteration. An iteration that consumes nothing is
// refused — the first iteration of '+' included, so "(a*)+" does not match
// "" — which also keeps loops finite. Nodes that always consume need no
// guard; the others are bracketed by a progress mark and its check.
func (c *pcompiler) iteration(n *pnode) {
	if minWidth(n) > 0 {
		c.one(n)
		return
	}
	mark := c.p.nregs
	c.p.nregs++
	c.emit(pinst{op: iSave, x: mark})
	c.one(n)
	c.emit(pinst{op: iCheck, x: mark})
}

// one emits a single occurrence of n, ignoring its repetition.
func (c *pcompiler) one(n *pnode) {
	switch n.kind {
	case pLiteral:
		c.emit(pinst{op: iByte, c: n.ch})
	case pAny:
		c.emit(pinst{op: iAny})
	case pClass:
		var set byteSet
		for _, r := range n.ranges {
			set.addRange(r[0], r[1])
		}
		if n.negate {
			set.invert()
		}
		c.p.classes = append(c.p.classes, set)
		c.emit(pinst{op: iClass, x: len(c.p.classes) - 1})
	case pGroup:
		c.emit(pinst{op: iSave, x: 2 * n.index})
		var ends []int
		for i, alt := range n.alts {
			if i == len(n.alts)-1 {
				c.seq(alt)
				break
			}
			split := c.emit(pinst{op: iSplit})
			c.p.prog[split].x = c.here()
			c.seq(alt)
			ends = append(ends, c.emit(pinst{op: iJmp}))
			c.p.prog[split].y = c.here()
		}
		for _, j := range ends {
			c.p.prog[j].x = c.here()
		}
		c.emit(pinst{op: iSave, x: 2*n.index + 1})
	}
}

// minWidth is a lower bound on the bytes one occurrence of n consumes.
func minWidth(n *pnode) int {
	if n.kind != pGroup {
		return 1
	}
	least := -1
	for _, alt := range n.alts {
		w := 0
		for i := range alt {
			if alt[i].rep != '*' && alt[i].rep != '?' {
				w += minWidth(&alt[i])
			}
		}
		if least < 0 || w < least {
			least = w
		}
	}
	return least
}

// stepsPerCell sizes the matcher's step budget: a run may execute at most
// stepsPerCell × program length × (input length + 1) instructions. Every
// pattern the mapping library uses needs a small fraction of that; a pattern
// whose backtracking is exponential in the input ("(.*)*x", "(a*)*b") runs
// out of budget instead of stalling the translation that asked.
const stepsPerCell = 64

// budget is the step budget for an input of n bytes.
func (p *Pattern) budget(n int) int { return stepsPerCell * len(p.prog) * (n + 1) }

// frame is one backtrack-stack entry: a branch to resume (pc >= 0), or a
// register to restore (pc = -1 - register, pos = its previous value).
type frame struct{ pc, pos int }

// regBuf is how many registers a match keeps on the goroutine stack; a
// pattern needing more allocates them.
const regBuf = 24

// registers returns the register file for one run, every slot unset (-1),
// backed by buf when it is large enough.
func (p *Pattern) registers(buf []int) []int {
	regs := buf
	if p.nregs > len(buf) {
		regs = make([]int, p.nregs)
	}
	regs = regs[:p.nregs]
	for i := range regs {
		regs[i] = -1
	}
	return regs
}

// run executes the program against the whole of s and leaves the captures
// in regs. It reports whether s matched and whether the run stopped on its
// step budget (which counts as no match).
func (p *Pattern) run(s string, regs []int) (ok, exhausted bool) {
	var buf [64]frame
	stack := buf[:0]
	budget := p.budget(len(s))
	pc, pos := 0, 0
	for steps := 0; ; steps++ {
		if steps == budget {
			return false, true
		}
		in := &p.prog[pc]
		switch in.op {
		case iByte:
			if pos < len(s) && s[pos] == in.c {
				pc, pos = pc+1, pos+1
				continue
			}
		case iAny:
			if pos < len(s) {
				pc, pos = pc+1, pos+1
				continue
			}
		case iClass:
			if pos < len(s) && p.classes[in.x].has(s[pos]) {
				pc, pos = pc+1, pos+1
				continue
			}
		case iSplit:
			stack = append(stack, frame{pc: in.y, pos: pos})
			pc = in.x
			continue
		case iJmp:
			pc = in.x
			continue
		case iSave:
			stack = append(stack, frame{pc: -1 - in.x, pos: regs[in.x]})
			regs[in.x] = pos
			pc++
			continue
		case iCheck:
			if regs[in.x] != pos {
				pc++
				continue
			}
		case iMatch:
			if pos == len(s) {
				return true, false
			}
		}
		// The instruction failed: undo register writes back to the most
		// recent branch and resume there.
		for {
			if len(stack) == 0 {
				return false, false
			}
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if f.pc >= 0 {
				pc, pos = f.pc, f.pos
				break
			}
			regs[-1-f.pc] = f.pos
		}
	}
}

// capture returns group i of a successful run over s ("" when the group did
// not participate).
func capture(s string, regs []int, i int) string {
	if i == 0 {
		return s
	}
	if lo := regs[2*i]; lo >= 0 {
		return s[lo:regs[2*i+1]]
	}
	return ""
}

// Match tests whether the whole input matches and returns the captured
// groups. groups[0] is the full match; groups[i] the i-th group ("" when
// unmatched). An input that exhausts the step budget does not match.
func (p *Pattern) Match(s string) (groups []string, ok bool) {
	var buf [regBuf]int
	regs := p.registers(buf[:])
	if ok, _ := p.run(s, regs); !ok {
		return nil, false
	}
	out := make([]string, p.groups+1)
	for i := range out {
		out[i] = capture(s, regs, i)
	}
	return out, true
}

// group matches s and returns capture group i alone, without building the
// groups slice Match returns.
func (p *Pattern) group(s string, i int) (string, bool) {
	var buf [regBuf]int
	regs := p.registers(buf[:])
	if ok, _ := p.run(s, regs); !ok {
		return "", false
	}
	return capture(s, regs, i), true
}

// Like reports whether the whole input matches (no captures needed).
func (p *Pattern) Like(s string) bool {
	var buf [regBuf]int
	ok, _ := p.run(s, p.registers(buf[:]))
	return ok
}

// Glob compiles a shell-style glob ('*' any run, '?' one char) into a
// Pattern; globs are the surface syntax of `like` partition constraints,
// e.g. "+1 908-582-9*" (paper §4.2).
func Glob(glob string) (*Pattern, error) {
	var out []byte
	for i := 0; i < len(glob); i++ {
		switch c := glob[i]; c {
		case '*':
			out = append(out, '.', '*')
		case '?':
			out = append(out, '.')
		case '.', '[', ']', '(', ')', '+', '\\', '|':
			out = append(out, '\\', c)
		default:
			out = append(out, c)
		}
	}
	return CompilePattern(string(out))
}
