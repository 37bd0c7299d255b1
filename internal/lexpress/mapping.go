package lexpress

import (
	"errors"
	"fmt"
	"sort"
	"strings"
)

// Mapping is a compiled lexpress mapping from a source schema to a target
// schema. Mappings are immutable after compilation and safe for concurrent
// use. Two mappings are specified for each schema pair, one per direction
// (paper §4.2).
type Mapping struct {
	Name   string
	Source string
	Target string

	keySrc, keyDst string
	body           *program
	partition      *program // nil when the target manages all records
	originator     string
	owned          []string
	rules          []closureRule

	// Canonical record keys of keyDst and originator, and the number of
	// attributes the body can store (an image's initial size).
	keyDstKey, originatorKey string
	stores                   int
}

// closureRule is one compiled derive statement.
type closureRule struct {
	dst    string // canonical
	inputs []string
	prog   *program
	guard  *program // nil = unconditional
}

// mayFire evaluates the rule's guard against rec.
func (r *closureRule) mayFire(m *vm, rec Record) (bool, error) {
	if r.guard == nil {
		return true, nil
	}
	return m.runCond(r.guard, rec)
}

// Library is a set of compiled mappings indexed by name. Descriptions for
// new sources can be compiled and added at run time (paper §4.2).
type Library struct {
	mappings map[string]*Mapping
}

// Compile compiles lexpress source text (one or more mappings) into a
// library.
func Compile(src string) (*Library, error) {
	lib := &Library{mappings: map[string]*Mapping{}}
	if err := lib.Add(src); err != nil {
		return nil, err
	}
	return lib, nil
}

// Add compiles more source into an existing library (dynamic addition of
// new-source descriptions to running programs).
func (l *Library) Add(src string) error {
	p, err := newParser(src)
	if err != nil {
		return err
	}
	asts, err := p.parseUnit()
	if err != nil {
		return err
	}
	compiled := make([]*Mapping, 0, len(asts))
	for _, ast := range asts {
		if _, dup := l.mappings[ast.Name]; dup {
			return fmt.Errorf("lexpress: duplicate mapping %q", ast.Name)
		}
		m, err := compileMapping(ast)
		if err != nil {
			return err
		}
		compiled = append(compiled, m)
	}
	for _, m := range compiled {
		l.mappings[m.Name] = m
	}
	return nil
}

// Get returns a mapping by name.
func (l *Library) Get(name string) (*Mapping, bool) {
	m, ok := l.mappings[name]
	return m, ok
}

// ForPair returns the mapping from source to target, if any.
func (l *Library) ForPair(source, target string) (*Mapping, bool) {
	for _, m := range l.sorted() {
		if m.Source == source && m.Target == target {
			return m, true
		}
	}
	return nil, false
}

// Names lists mapping names, sorted.
func (l *Library) Names() []string {
	out := make([]string, 0, len(l.mappings))
	for n := range l.mappings {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (l *Library) sorted() []*Mapping {
	names := l.Names()
	out := make([]*Mapping, 0, len(names))
	for _, n := range names {
		out = append(out, l.mappings[n])
	}
	return out
}

func compileMapping(ast *mappingAST) (*Mapping, error) {
	m := &Mapping{
		Name:       ast.Name,
		Source:     ast.Source,
		Target:     ast.Target,
		keySrc:     ast.KeySrc,
		keyDst:     ast.KeyDst,
		originator: ast.Originator,
		owned:      append([]string(nil), ast.Owns...),

		keyDstKey:     canon(ast.KeyDst),
		originatorKey: canon(ast.Originator),
	}
	c := newCompiler(ast)
	body, err := c.compileStmts(ast.Stmts)
	if err != nil {
		return nil, fmt.Errorf("lexpress: mapping %q: %v", ast.Name, err)
	}
	m.body = body
	m.stores = len(m.MappedAttrs())
	if ast.Partition != nil {
		p, err := compileCondProgram(ast, ast.Partition)
		if err != nil {
			return nil, fmt.Errorf("lexpress: mapping %q partition: %v", ast.Name, err)
		}
		m.partition = p
	}
	for _, d := range ast.Derives {
		prog, err := compileExprProgram(ast, d.E)
		if err != nil {
			return nil, fmt.Errorf("lexpress: mapping %q derive %s: %v", ast.Name, d.Dst, err)
		}
		rule := closureRule{
			dst:    canon(d.Dst),
			inputs: exprInputs(d.E),
			prog:   prog,
		}
		if d.Guard != nil {
			g, err := compileCondProgram(ast, d.Guard)
			if err != nil {
				return nil, fmt.Errorf("lexpress: mapping %q derive %s guard: %v", ast.Name, d.Dst, err)
			}
			rule.guard = g
		}
		m.rules = append(m.rules, rule)
	}
	return m, nil
}

// KeyAttrs returns the source and target key attribute names.
func (m *Mapping) KeyAttrs() (src, dst string) { return m.keySrc, m.keyDst }

// Originator returns the attribute designated by the originator
// characteristic ("" when none).
func (m *Mapping) Originator() string { return m.originator }

// Owned returns the source-schema attributes the target exclusively owns.
func (m *Mapping) Owned() []string { return append([]string(nil), m.owned...) }

// Disassemble renders the mapping's body byte code (for lexc).
func (m *Mapping) Disassemble() string { return m.body.Disassemble() }

// MappedAttrs returns the target attributes assigned by the mapping body's
// map/set statements — the attributes the source repository actually speaks
// for. Derive-rule outputs (schema-completion helpers like sn) are
// excluded; synchronization compares and converges only mapped attributes.
func (m *Mapping) MappedAttrs() []string {
	seen := map[string]bool{}
	var out []string
	for _, in := range m.body.code {
		if in.Op == opStore || in.Op == opStoreN {
			a := m.body.attrs[in.A]
			if !seen[canon(a)] {
				seen[canon(a)] = true
				out = append(out, a)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Image translates a full source record into the target schema: the mapping
// body runs first (ordered, first-mapping-wins), then the derive rules fill
// any still-unset target attributes to fixpoint.
func (m *Mapping) Image(src Record) (Record, error) {
	machine := newVM()
	return m.image(&machine, src)
}

func (m *Mapping) image(machine *vm, src Record) (Record, error) {
	if src == nil {
		return nil, nil
	}
	out := make(Record, m.stores+len(m.rules))
	machine.stack = machine.stack[:0]
	if err := machine.run(m.body, src, out); err != nil {
		return nil, err
	}
	// Full-image closure: fire each rule at most once, only into unset
	// attributes, until no rule fires.
	for fired := true; fired; {
		fired = false
		for i := range m.rules {
			r := &m.rules[i]
			if _, set := out[r.dst]; set {
				continue
			}
			if ok, err := r.mayFire(machine, out); err != nil {
				return nil, err
			} else if !ok {
				continue
			}
			v, err := machine.runExpr(r.prog, out)
			if err != nil {
				return nil, err
			}
			if len(v) > 0 {
				out[r.dst] = append([]string(nil), v...)
				fired = true
			}
		}
	}
	return out, nil
}

// satisfiesPartition evaluates the partition constraint against a source
// record (the paper checks the constraint "against both the old and new
// attributes of the object", i.e. the update's own schema); an absent record
// never satisfies it, and a mapping without a constraint accepts every
// present record.
func (m *Mapping) satisfiesPartition(machine *vm, rec Record) (bool, error) {
	if rec == nil {
		return false, nil
	}
	if m.partition == nil {
		return true, nil
	}
	return machine.runCond(m.partition, rec)
}

// Translate turns an update descriptor in the mapping's source schema into
// the update to apply to the target repository, or nil when the update does
// not concern the target (paper §4.2):
//
//	old violates / new satisfies  -> add     (record migrates in)
//	old satisfies / new satisfies -> modify
//	old satisfies / new violates  -> delete  (record migrates out)
//	old violates / new violates   -> skip    (nil)
//
// When the update's origin is the target itself, the returned update is
// marked Conditional so the applying filter uses reapply semantics (§5.4).
//
// The partition constraint is evaluated first: an update the target does not
// manage costs two conditions and builds no image.
func (m *Mapping) Translate(d Descriptor) (*TargetUpdate, error) {
	machine := newVM()
	var oldOK, newOK bool
	var err error
	if d.Op != OpAdd {
		if oldOK, err = m.satisfiesPartition(&machine, d.Old); err != nil {
			return nil, err
		}
	}
	if d.Op != OpDelete {
		if newOK, err = m.satisfiesPartition(&machine, d.New); err != nil {
			return nil, err
		}
	}
	var op OpKind
	switch {
	case !oldOK && newOK:
		op = OpAdd
	case oldOK && newOK:
		op = OpModify
	case oldOK && !newOK:
		op = OpDelete
	default:
		return nil, nil // not under this target's management
	}
	u := &TargetUpdate{Target: m.Target, Op: op, Owned: m.owned}
	if d.Op != OpAdd {
		if u.Old, err = m.image(&machine, d.Old); err != nil {
			return nil, err
		}
	}
	if d.Op != OpDelete {
		if u.New, err = m.image(&machine, d.New); err != nil {
			return nil, err
		}
	}
	if u.New != nil {
		u.Key = first(u.New[m.keyDstKey])
	}
	if u.Old != nil {
		u.OldKey = first(u.Old[m.keyDstKey])
	}
	if u.Key == "" {
		u.Key = u.OldKey
	}
	if u.OldKey == "" {
		u.OldKey = u.Key
	}
	if u.Key == "" {
		return nil, fmt.Errorf("lexpress: mapping %q: translated update has no key (%s)", m.Name, m.keyDst)
	}

	// Conditional-update detection: the source record names where the
	// update originated (the Originator characteristic designates which
	// attribute carries it); the descriptor's Origin is the fallback.
	origin := d.OriginName()
	if m.originator != "" {
		if v := first(d.New[m.originatorKey]); v != "" {
			origin = v
		} else if v := first(d.Old[m.originatorKey]); v != "" {
			origin = v
		}
	}
	u.Conditional = strings.EqualFold(origin, m.Target)
	return u, nil
}

// first returns the first of vs, or "".
func first(vs []string) string {
	if len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// ErrNoFixpoint reports a closure pass that could not reach a fixpoint for
// the current update (the runtime half of the paper's planned cyclic-
// dependency handling).
var ErrNoFixpoint = errors.New("lexpress: closure did not reach a fixpoint")

// ApplyClosure propagates an incremental change through the mapping's
// derive rules, implementing the paper's transitive-closure semantics with
// its conflict-resolution rule:
//
//   - a rule fires when one of its inputs changed;
//   - explicitly set attributes are never overwritten;
//   - the first rule to set an attribute wins — later rules (and rules fed
//     by inconsistently set attributes) leave it alone;
//   - each rule fires at most once per update, so the pass terminates; if
//     the final state still disagrees with some fired rule whose output was
//     explicitly set, that is precisely the paper's tolerated inconsistency
//     between explicitly set attributes.
//
// old is the record before the update, rec the record after (mutated in
// place); explicit lists the attributes the client set. It returns the
// attributes the closure changed.
func (m *Mapping) ApplyClosure(old, rec Record, explicit []string) ([]string, error) {
	changed := map[string]bool{}
	for _, a := range explicit {
		changed[canon(a)] = true
	}
	if old != nil {
		for _, a := range rec.Attrs() {
			if !sameValues(old.Get(a), rec.Get(a)) {
				changed[a] = true
			}
		}
		for _, a := range old.Attrs() {
			if !rec.Has(a) {
				changed[a] = true
			}
		}
	}
	explicitSet := map[string]bool{}
	for _, a := range explicit {
		explicitSet[canon(a)] = true
	}
	fired := map[int]bool{}
	machine := newVM()
	var out []string
	for pass := 0; ; pass++ {
		if pass > len(m.rules)+1 {
			return out, ErrNoFixpoint
		}
		any := false
		for i := range m.rules {
			r := &m.rules[i]
			if fired[i] || explicitSet[r.dst] {
				continue
			}
			if !touchesAny(r.inputs, changed) {
				continue
			}
			if ok, err := r.mayFire(&machine, rec); err != nil {
				return out, err
			} else if !ok {
				continue
			}
			v, err := machine.runExpr(r.prog, rec)
			if err != nil {
				return out, err
			}
			fired[i] = true
			any = true
			if len(v) == 0 || sameValues(rec.Get(r.dst), []string(v)) {
				continue
			}
			rec.Set(r.dst, v...)
			changed[r.dst] = true
			out = append(out, r.dst)
		}
		if !any {
			return out, nil
		}
	}
}

func touchesAny(inputs []string, changed map[string]bool) bool {
	for _, in := range inputs {
		if changed[in] {
			return true
		}
	}
	return false
}

func sameValues(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ClosureCycles returns the dependency cycles among derive rules (the
// compile-time half of cyclic-dependency identification). Each cycle is the
// list of attributes involved.
func (m *Mapping) ClosureCycles() [][]string {
	// Edges: rule.dst -> each input that is some rule's dst.
	producers := map[string]bool{}
	for _, r := range m.rules {
		producers[r.dst] = true
	}
	adj := map[string][]string{}
	for _, r := range m.rules {
		for _, in := range r.inputs {
			if producers[in] {
				adj[r.dst] = append(adj[r.dst], in)
			}
		}
	}
	// Iterative DFS cycle collection on a small graph.
	var cycles [][]string
	state := map[string]int{} // 0 unvisited, 1 in-stack, 2 done
	var stack []string
	var dfs func(string)
	dfs = func(n string) {
		state[n] = 1
		stack = append(stack, n)
		for _, next := range adj[n] {
			switch state[next] {
			case 0:
				dfs(next)
			case 1:
				// Found a cycle: slice the stack from next onward.
				for i := len(stack) - 1; i >= 0; i-- {
					if stack[i] == next {
						cyc := append([]string(nil), stack[i:]...)
						sort.Strings(cyc)
						cycles = append(cycles, cyc)
						break
					}
				}
			}
		}
		stack = stack[:len(stack)-1]
		state[n] = 2
	}
	keys := make([]string, 0, len(adj))
	for k := range adj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if state[k] == 0 {
			dfs(k)
		}
	}
	return dedupCycles(cycles)
}

func dedupCycles(cycles [][]string) [][]string {
	seen := map[string]bool{}
	var out [][]string
	for _, c := range cycles {
		k := strings.Join(c, "|")
		if !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	return out
}
