package lexpress

import (
	"strings"
	"testing"
	"time"
)

// This file keeps the original continuation-passing matcher as the
// reference the compiled pattern program is checked against: the program
// must find the same match — ok and every group — wherever the reference
// finishes within its step budget.

// refMatcher walks the parsed node tree with continuations, counting the
// calls it makes against a budget.
type refMatcher struct {
	steps, budget int
}

// errRefBudget unwinds a reference run that used up its budget.
type errRefBudget struct{}

func (r *refMatcher) step() {
	if r.steps++; r.steps > r.budget {
		panic(errRefBudget{})
	}
}

// refMatch matches s against the pattern source with the reference matcher.
// finished is false when the run needed more than budget steps.
func refMatch(t testing.TB, src, s string, budget int) (groups []string, ok, finished bool) {
	t.Helper()
	pp := &patternParser{src: src}
	nodes, err := pp.parseAlt(false)
	if err != nil || pp.pos != len(src) {
		t.Fatalf("reference parse of %q: %v", src, err)
	}
	caps := make([][2]int, pp.groups+1)
	for i := range caps {
		caps[i] = [2]int{-1, -1}
	}
	r := &refMatcher{budget: budget}
	defer func() {
		if e := recover(); e != nil {
			if _, over := e.(errRefBudget); !over {
				panic(e)
			}
			groups, ok, finished = nil, false, false
		}
	}()
	if !r.matchSeq(nodes, s, 0, caps, func(pos int) bool { return pos == len(s) }) {
		return nil, false, true
	}
	out := make([]string, pp.groups+1)
	out[0] = s
	for i := 1; i <= pp.groups; i++ {
		if caps[i][0] >= 0 {
			out[i] = s[caps[i][0]:caps[i][1]]
		}
	}
	return out, true, true
}

func refMatchClass(n *pnode, c byte) bool {
	in := false
	for _, r := range n.ranges {
		if c >= r[0] && c <= r[1] {
			in = true
			break
		}
	}
	return in != n.negate
}

// matchSeq matches nodes against s starting at pos; k is the continuation.
func (r *refMatcher) matchSeq(nodes []pnode, s string, pos int, caps [][2]int, k func(int) bool) bool {
	r.step()
	if len(nodes) == 0 {
		return k(pos)
	}
	n := &nodes[0]
	rest := nodes[1:]
	cont := func(p int) bool { return r.matchSeq(rest, s, p, caps, k) }
	switch n.rep {
	case 0:
		return r.matchOne(n, s, pos, caps, cont)
	case '?':
		// Greedy: try one occurrence, then zero.
		if r.matchOne(n, s, pos, caps, cont) {
			return true
		}
		return cont(pos)
	case '*', '+':
		min := 0
		if n.rep == '+' {
			min = 1
		}
		var rec func(count, p int) bool
		rec = func(count, p int) bool {
			r.step()
			// Greedy: attempt to consume more first.
			if r.matchOne(n, s, p, caps, func(np int) bool {
				if np == p {
					return false // zero-width: stop expanding
				}
				return rec(count+1, np)
			}) {
				return true
			}
			if count >= min {
				return cont(p)
			}
			return false
		}
		return rec(0, pos)
	}
	return false
}

func (r *refMatcher) matchOne(n *pnode, s string, pos int, caps [][2]int, k func(int) bool) bool {
	r.step()
	switch n.kind {
	case pLiteral:
		if pos < len(s) && s[pos] == n.ch {
			return k(pos + 1)
		}
	case pAny:
		if pos < len(s) {
			return k(pos + 1)
		}
	case pClass:
		if pos < len(s) && refMatchClass(n, s[pos]) {
			return k(pos + 1)
		}
	case pGroup:
		saved := caps[n.index]
		for _, alt := range n.alts {
			if r.matchSeq(alt, s, pos, caps, func(np int) bool {
				prev := caps[n.index]
				caps[n.index] = [2]int{pos, np}
				if k(np) {
					return true
				}
				caps[n.index] = prev
				return false
			}) {
				return true
			}
		}
		caps[n.index] = saved
	}
	return false
}

// refBudget is the reference's budget for p on s: an eighth of the
// program's, so any run the reference finishes is one the program finishes
// too (the program executes at most about three instructions per reference
// call; measured on the fuzz corpus, worst case "(||||||||0)*").
func refBudget(p *Pattern, s string) int { return p.budget(len(s)) / 8 }

// checkAgainstReference fails when the program and the reference disagree
// on a run the reference finishes.
func checkAgainstReference(t *testing.T, src, s string) {
	t.Helper()
	p, err := CompilePattern(src)
	if err != nil {
		return
	}
	want, wantOK, finished := refMatch(t, src, s, refBudget(p, s))
	if !finished {
		return
	}
	got, gotOK := p.Match(s)
	if gotOK != wantOK {
		t.Fatalf("pattern %q on %q: ok = %v, reference %v", src, s, gotOK, wantOK)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pattern %q on %q: group %d = %q, reference %q", src, s, i, got[i], want[i])
		}
	}
	if p.Like(s) != wantOK {
		t.Fatalf("pattern %q on %q: Like disagrees with Match", src, s)
	}
	for i := range want {
		if g, ok := p.group(s, i); ok != wantOK || (ok && g != want[i]) {
			t.Fatalf("pattern %q on %q: group(%d) = %q, %v; reference %q, %v", src, s, i, g, ok, want[i], wantOK)
		}
	}
}

// referenceCases are the differential seeds: the library's five patterns on
// the values they meet, the zero-width rule's corner cases, backtracking
// into alternatives, and non-ASCII input under '.' and negated classes.
var referenceCases = [][2]string{
	{`([0-9])-([0-9]+)`, "2-9000"},
	{`([0-9])-([0-9]+)`, "29000"},
	{`\+1 908 58([0-9]) ([0-9]+)`, "+1 908 582 9000"},
	{`\+1 908 58[0-9] ([0-9]+)`, "+1 908 585 1234"},
	{`.* ([^ ]+)`, "John Doe"},
	{`.* ([^ ]+)`, "Cher"},
	{`\+1 908-582-9.*`, "+1 908-582-9123"},
	{`(a*)+`, ""},
	{`(a*)+`, "aaa"},
	{`(a*)*`, ""},
	{`(a|)+b`, "b"},
	{`(|a)*`, "aa"},
	{`((a*)b?)*c`, "aabac"},
	{`(ab|a)(b*)c?`, "abbc"},
	{`(ab|a)(b*)c?`, "ab"},
	{`(a+)(a+)`, "aaa"},
	{`(cat|dog|mouse)s?`, "dogs"},
	{`.* ([^ ]+)`, "José Müller"},
	{`(.)(.)`, "é"},
	{`([^ ]+) (.*)`, "Zoë Ångström"},
	{`[^a-z]+`, "ÄÖÜ"},
	{`()`, ""},
	{`(()|a)*b`, "aab"},
}

func TestPatternMatchesReference(t *testing.T) {
	for _, c := range referenceCases {
		checkAgainstReference(t, c[0], c[1])
	}
}

// FuzzPatternMatch checks the compiled pattern program against the
// reference matcher on arbitrary patterns and inputs.
func FuzzPatternMatch(f *testing.F) {
	for _, c := range referenceCases {
		f.Add(c[0], c[1])
	}
	f.Fuzz(func(t *testing.T, pat, input string) {
		if len(pat) > 64 || len(input) > 256 {
			return // cap work per exec, not coverage
		}
		checkAgainstReference(t, pat, input)
	})
}

// TestPatternBudgetStopsExponentialPatterns: a mapping pattern whose
// backtracking is exponential in the input must not stall a UM shard worker.
// Past its step budget the matcher answers "no match" — the absent value
// dirty data already yields — quickly.
func TestPatternBudgetStopsExponentialPatterns(t *testing.T) {
	for _, c := range [][2]string{
		{`(.*)*x`, strings.Repeat("y", 64)},
		{`(a*)*b`, strings.Repeat("a", 64)},
	} {
		p := MustCompilePattern(c[0])
		done := make(chan time.Duration, 1)
		go func() {
			start := time.Now()
			if p.Like(c[1]) {
				t.Errorf("%q matched %q", c[0], c[1])
			}
			done <- time.Since(start)
		}()
		select {
		case d := <-done:
			if d > 50*time.Millisecond {
				t.Errorf("%q on %d bytes took %v, want < 50ms", c[0], len(c[1]), d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%q on %d bytes still running after 5s", c[0], len(c[1]))
		}
	}
}
