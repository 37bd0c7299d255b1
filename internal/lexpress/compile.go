package lexpress

import (
	"fmt"
	"sort"
)

// compiler turns one mappingAST into executable programs.
type compiler struct {
	m *mappingAST

	prog       *program
	constIdx   map[string]int
	attrIdx    map[string]int
	patternIdx map[string]int
	tableIdx   map[string]int
}

func newCompiler(m *mappingAST) *compiler {
	return &compiler{
		m:          m,
		prog:       &program{},
		constIdx:   map[string]int{},
		attrIdx:    map[string]int{},
		patternIdx: map[string]int{},
		tableIdx:   map[string]int{},
	}
}

func (c *compiler) constant(s string) int {
	if i, ok := c.constIdx[s]; ok {
		return i
	}
	i := len(c.prog.consts)
	c.prog.consts = append(c.prog.consts, scalar(s))
	c.constIdx[s] = i
	return i
}

// attr interns an attribute name: the pool keeps its first spelling for
// display and its canonical key, which the VM uses to index records
// directly.
func (c *compiler) attr(name string) int {
	k := canon(name)
	if i, ok := c.attrIdx[k]; ok {
		return i
	}
	i := len(c.prog.attrs)
	c.prog.attrs = append(c.prog.attrs, name)
	c.prog.keys = append(c.prog.keys, k)
	c.attrIdx[k] = i
	return i
}

func (c *compiler) pattern(src string, glob bool) (int, error) {
	key := src
	if glob {
		key = "glob:" + src
	}
	if i, ok := c.patternIdx[key]; ok {
		return i, nil
	}
	var p *Pattern
	var err error
	if glob {
		p, err = Glob(src)
	} else {
		p, err = CompilePattern(src)
	}
	if err != nil {
		return 0, err
	}
	i := len(c.prog.patterns)
	c.prog.patterns = append(c.prog.patterns, p)
	c.patternIdx[key] = i
	return i, nil
}

func (c *compiler) table(name string) (int, error) {
	if i, ok := c.tableIdx[name]; ok {
		return i, nil
	}
	t, ok := c.m.Tables[name]
	if !ok {
		return 0, fmt.Errorf("lexpress: mapping %q: undefined table %q", c.m.Name, name)
	}
	i := len(c.prog.tables)
	c.prog.tables = append(c.prog.tables, t)
	c.tableIdx[name] = i
	return i, nil
}

func (c *compiler) emit(op opcode, a, b int) int {
	c.prog.code = append(c.prog.code, instr{Op: op, A: a, B: b})
	return len(c.prog.code) - 1
}

func (c *compiler) compileExpr(e expr) error {
	switch e := e.(type) {
	case strLit:
		c.emit(opPushConst, c.constant(e.Val), 0)
	case numLit:
		c.emit(opPushConst, c.constant(fmt.Sprint(e.Val)), 0)
	case attrRef:
		c.emit(opLoad, c.attr(e.Name), 0)
	case concatExpr:
		for _, p := range e.Parts {
			if err := c.compileExpr(p); err != nil {
				return err
			}
		}
		c.emit(opConcat, len(e.Parts), 0)
	case altExpr:
		for _, o := range e.Options {
			if err := c.compileExpr(o); err != nil {
				return err
			}
		}
		c.emit(opAlt, len(e.Options), 0)
	case callExpr:
		return c.compileCall(e)
	default:
		return fmt.Errorf("lexpress: unknown expression %T", e)
	}
	return nil
}

func (c *compiler) compileCall(e callExpr) error {
	switch e.Fn {
	case "group":
		// group(expr, "pattern", n): the pattern and group index must be
		// literals so the pattern compiles once at mapping-compile time.
		if len(e.Args) != 3 {
			return fmt.Errorf("lexpress: group() takes 3 arguments")
		}
		pat, ok := e.Args[1].(strLit)
		if !ok {
			return fmt.Errorf("lexpress: group() pattern must be a string literal")
		}
		n, ok := e.Args[2].(numLit)
		if !ok {
			return fmt.Errorf("lexpress: group() index must be a number literal")
		}
		pi, err := c.pattern(pat.Val, false)
		if err != nil {
			return err
		}
		if n.Val < 0 || n.Val > c.prog.patterns[pi].Groups() {
			return fmt.Errorf("lexpress: group index %d out of range for pattern %q", n.Val, pat.Val)
		}
		if err := c.compileExpr(e.Args[0]); err != nil {
			return err
		}
		c.emit(opGroup, pi, n.Val)
		return nil
	case "lookup":
		if len(e.Args) != 2 {
			return fmt.Errorf("lexpress: lookup() takes 2 arguments")
		}
		tn, ok := e.Args[0].(attrRef)
		if !ok {
			return fmt.Errorf("lexpress: lookup() table must be a name")
		}
		ti, err := c.table(tn.Name)
		if err != nil {
			return err
		}
		if err := c.compileExpr(e.Args[1]); err != nil {
			return err
		}
		c.emit(opLookup, ti, 0)
		return nil
	}
	b, ok := builtinByName[e.Fn]
	if !ok {
		return fmt.Errorf("lexpress: unknown function %q", e.Fn)
	}
	if len(e.Args) != b.arity {
		return fmt.Errorf("lexpress: %s() takes %d arguments, got %d", e.Fn, b.arity, len(e.Args))
	}
	// values(attr) loads the attr directly — it exists to make multi-valued
	// intent explicit in mapping sources.
	if b.fn == fnValues {
		a, ok := e.Args[0].(attrRef)
		if !ok {
			return fmt.Errorf("lexpress: values() takes an attribute name")
		}
		c.emit(opLoad, c.attr(a.Name), 0)
		return nil
	}
	for _, a := range e.Args {
		if err := c.compileExpr(a); err != nil {
			return err
		}
	}
	c.emit(opCall, int(b.fn), len(e.Args))
	return nil
}

func (c *compiler) compileCond(cd cond) error {
	switch cd := cd.(type) {
	case cmpCond:
		if err := c.compileExpr(cd.L); err != nil {
			return err
		}
		if err := c.compileExpr(cd.R); err != nil {
			return err
		}
		if cd.NE {
			c.emit(opNe, 0, 0)
		} else {
			c.emit(opEq, 0, 0)
		}
	case likeCond:
		pi, err := c.pattern(cd.Pat, !cd.IsMatch)
		if err != nil {
			return err
		}
		if err := c.compileExpr(cd.E); err != nil {
			return err
		}
		c.emit(opLike, pi, 0)
	case presentCond:
		c.emit(opPresent, c.attr(cd.Attr), 0)
	case notCond:
		if err := c.compileCond(cd.C); err != nil {
			return err
		}
		c.emit(opNot, 0, 0)
	case andCond:
		// Short-circuit: L false -> jump past R with false on stack.
		if err := c.compileCond(cd.L); err != nil {
			return err
		}
		j1 := c.emit(opJmpFalse, 0, 0)
		if err := c.compileCond(cd.R); err != nil {
			return err
		}
		j2 := c.emit(opJmp, 0, 0)
		c.prog.code[j1].A = len(c.prog.code)
		c.emit(opPushConst, c.constant(""), 0) // falsy
		c.prog.code[j2].A = len(c.prog.code)
	case orCond:
		if err := c.compileCond(cd.L); err != nil {
			return err
		}
		j1 := c.emit(opJmpFalse, 0, 0)
		c.emit(opPushConst, c.constant("1"), 0) // truthy
		j2 := c.emit(opJmp, 0, 0)
		c.prog.code[j1].A = len(c.prog.code)
		if err := c.compileCond(cd.R); err != nil {
			return err
		}
		c.prog.code[j2].A = len(c.prog.code)
	default:
		return fmt.Errorf("lexpress: unknown condition %T", cd)
	}
	return nil
}

// compileStmts compiles the ordered mapping body into one program.
func (c *compiler) compileStmts(stmts []stmt) (*program, error) {
	for _, s := range stmts {
		var guard cond
		switch s := s.(type) {
		case mapStmt:
			guard = s.Guard
		case setStmt:
			guard = s.Guard
		}
		var jGuard int = -1
		if guard != nil {
			if err := c.compileCond(guard); err != nil {
				return nil, err
			}
			jGuard = c.emit(opJmpFalse, 0, 0)
		}
		switch s := s.(type) {
		case mapStmt:
			if err := c.compileExpr(s.E); err != nil {
				return nil, err
			}
			c.emit(opStore, c.attr(s.Dst), 0)
		case setStmt:
			for _, e := range s.Es {
				if err := c.compileExpr(e); err != nil {
					return nil, err
				}
			}
			c.emit(opStoreN, c.attr(s.Dst), len(s.Es))
		default:
			return nil, fmt.Errorf("lexpress: unknown statement %T", s)
		}
		if jGuard >= 0 {
			c.prog.code[jGuard].A = len(c.prog.code)
		}
	}
	c.emit(opHalt, 0, 0)
	return c.prog, nil
}

// compileExprProgram compiles a single expression into its own program.
func compileExprProgram(m *mappingAST, e expr) (*program, error) {
	c := newCompiler(m)
	if err := c.compileExpr(e); err != nil {
		return nil, err
	}
	c.emit(opHalt, 0, 0)
	return c.prog, nil
}

// compileCondProgram compiles a condition into its own program.
func compileCondProgram(m *mappingAST, cd cond) (*program, error) {
	c := newCompiler(m)
	if err := c.compileCond(cd); err != nil {
		return nil, err
	}
	c.emit(opHalt, 0, 0)
	return c.prog, nil
}

// exprInputs lists the source attributes an expression reads (dependency
// analysis for closure rules and cycle detection).
func exprInputs(e expr) []string {
	set := map[string]bool{}
	var walk func(expr)
	walk = func(e expr) {
		switch e := e.(type) {
		case attrRef:
			set[canon(e.Name)] = true
		case concatExpr:
			for _, p := range e.Parts {
				walk(p)
			}
		case altExpr:
			for _, o := range e.Options {
				walk(o)
			}
		case callExpr:
			if e.Fn == "lookup" && len(e.Args) == 2 {
				walk(e.Args[1]) // arg 0 is the table name
				return
			}
			for _, a := range e.Args {
				walk(a)
			}
		}
	}
	walk(e)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
