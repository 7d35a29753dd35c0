package access

import (
	"sync"
	"testing"

	"repro/internal/logic"
)

func TestParsePattern(t *testing.T) {
	tests := []struct {
		in      string
		wantErr bool
	}{
		{"ioo", false},
		{"", false},
		{"o", false},
		{"iib", true},
		{"IO", true},
	}
	for _, tt := range tests {
		_, err := ParsePattern(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParsePattern(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
		}
	}
}

func TestPatternSlots(t *testing.T) {
	p := MustPattern("oio")
	if p.Arity() != 3 {
		t.Fatalf("Arity = %d", p.Arity())
	}
	if p.Input(0) || !p.Input(1) || p.Input(2) {
		t.Error("Input slots wrong")
	}
	if p.InputCount() != 1 {
		t.Errorf("InputCount = %d", p.InputCount())
	}
	if !AllOutputPattern(3).AllOutput() {
		t.Error("AllOutputPattern must be all output")
	}
	if AllInputPattern(2) != "ii" {
		t.Errorf("AllInputPattern(2) = %s", AllInputPattern(2))
	}
}

func TestPatternSubsumes(t *testing.T) {
	tests := []struct {
		p, q string
		want bool
	}{
		{"ooo", "ioo", true},  // fewer inputs subsumes more inputs
		{"ioo", "ooo", false}, // extra input slot is more restrictive
		{"oio", "iio", true},
		{"oio", "ioo", false},
		{"oo", "ooo", false}, // arity mismatch
		{"ii", "ii", true},
	}
	for _, tt := range tests {
		if got := MustPattern(tt.p).Subsumes(MustPattern(tt.q)); got != tt.want {
			t.Errorf("%s.Subsumes(%s) = %v, want %v", tt.p, tt.q, got, tt.want)
		}
	}
}

func TestSetAddAndLookup(t *testing.T) {
	s := NewSet()
	if err := s.Add("B", MustPattern("ioo")); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("B", MustPattern("oio")); err != nil {
		t.Fatal(err)
	}
	if err := s.Add("B", MustPattern("ioo")); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Patterns("B")); got != 2 {
		t.Errorf("duplicate Add must be ignored; got %d patterns", got)
	}
	if err := s.Add("B", MustPattern("io")); err == nil {
		t.Error("Add must reject conflicting arity")
	}
	if s.Arity("B") != 3 || s.Arity("Z") != -1 {
		t.Error("Arity lookup wrong")
	}
	if !s.Has("B") || s.Has("Z") {
		t.Error("Has lookup wrong")
	}
}

func TestSetString(t *testing.T) {
	s := NewSet().MustAdd("C", "oo").MustAdd("B", "ioo").MustAdd("B", "oio")
	if got, want := s.String(), "B^ioo B^oio C^oo"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestSetMinimize(t *testing.T) {
	s := NewSet().
		MustAdd("B", "ooo"). // subsumes both others
		MustAdd("B", "ioo").
		MustAdd("B", "oio").
		MustAdd("C", "io").
		MustAdd("C", "oi") // incomparable: both kept
	m := s.Minimize()
	if got := m.String(); got != "B^ooo C^io C^oi" {
		t.Errorf("Minimize = %q, want %q", got, "B^ooo C^io C^oi")
	}
	// Callability is preserved: anything callable under s is callable
	// under m and vice versa.
	atom := logic.NewAtom("B", logic.Var("x"), logic.Var("y"), logic.Var("z"))
	for _, bound := range []map[string]bool{
		{}, {"x": true}, {"y": true}, {"x": true, "y": true},
	} {
		_, okS := s.Callable(atom, bound)
		_, okM := m.Callable(atom, bound)
		if okS != okM {
			t.Errorf("bound=%v: callable(s)=%v callable(m)=%v", bound, okS, okM)
		}
	}
}

func TestSetMinimizeKeepsOneOfIdenticalTwins(t *testing.T) {
	s := NewSet()
	// Add can't create duplicates, so build the edge case directly via
	// two relations with a single pattern each.
	s.MustAdd("R", "io")
	m := s.Minimize()
	if len(m.Patterns("R")) != 1 {
		t.Errorf("Minimize dropped a sole pattern: %v", m.Patterns("R"))
	}
}

func TestCallable(t *testing.T) {
	s := NewSet().MustAdd("B", "ioo").MustAdd("B", "oio")
	atom := logic.NewAtom("B", logic.Var("i"), logic.Var("a"), logic.Var("t"))

	if _, ok := s.Callable(atom, map[string]bool{}); ok {
		t.Error("B with no bound vars must not be callable (Example 1)")
	}
	if p, ok := s.Callable(atom, map[string]bool{"i": true}); !ok || p != "ioo" {
		t.Errorf("with i bound want ioo, got %v %v", p, ok)
	}
	if p, ok := s.Callable(atom, map[string]bool{"a": true}); !ok || p != "oio" {
		t.Errorf("with a bound want oio, got %v %v", p, ok)
	}
	// With both bound, prefer the pattern with more input slots; both have
	// one, so either is fine.
	if _, ok := s.Callable(atom, map[string]bool{"i": true, "a": true}); !ok {
		t.Error("with i and a bound B must be callable")
	}
	// Constants count as bound.
	catom := logic.NewAtom("B", logic.Const("0471"), logic.Var("a"), logic.Var("t"))
	if p, ok := s.Callable(catom, map[string]bool{}); !ok || p != "ioo" {
		t.Errorf("constant in input slot must satisfy it; got %v %v", p, ok)
	}
}

func TestInVarsOutVars(t *testing.T) {
	atom := logic.NewAtom("B", logic.Var("i"), logic.Var("a"), logic.Var("t"))
	in := InVars(atom, MustPattern("oio"))
	if len(in) != 1 || in[0] != logic.Var("a") {
		t.Errorf("InVars = %v", in)
	}
	out := OutVars(atom, MustPattern("oio"))
	if len(out) != 2 || out[0] != logic.Var("i") || out[1] != logic.Var("t") {
		t.Errorf("OutVars = %v", out)
	}
}

// Example 1 of the paper: Q(i,a,t) :- B(i,a,t), C(i,a), not L(i) with
// patterns B^ioo, B^oio, C^oo, L^o. As written the query is not
// executable; with C first it is.
func paperPatterns() *Set {
	return NewSet().MustAdd("B", "ioo").MustAdd("B", "oio").MustAdd("C", "oo").MustAdd("L", "o")
}

func TestAdornInOrderExample1(t *testing.T) {
	ps := paperPatterns()
	b := logic.Pos(logic.NewAtom("B", logic.Var("i"), logic.Var("a"), logic.Var("t")))
	c := logic.Pos(logic.NewAtom("C", logic.Var("i"), logic.Var("a")))
	l := logic.Neg(logic.NewAtom("L", logic.Var("i")))

	if _, ok := AdornInOrder([]logic.Literal{b, c, l}, ps); ok {
		t.Error("B, C, not L must not be executable in that order")
	}
	plan, ok := AdornInOrder([]logic.Literal{c, b, l}, ps)
	if !ok {
		t.Fatal("C, B, not L must be executable")
	}
	if plan[0].Pattern != "oo" {
		t.Errorf("C pattern = %s, want oo", plan[0].Pattern)
	}
	// With i and a bound, the chosen B pattern must be usable; both are.
	if plan[1].Pattern != "ioo" && plan[1].Pattern != "oio" {
		t.Errorf("B pattern = %s", plan[1].Pattern)
	}
	if plan[2].Pattern != "o" {
		t.Errorf("L pattern = %s, want o", plan[2].Pattern)
	}
	// A negated call first can neither bind nor be executed unbound.
	if _, ok := AdornInOrder([]logic.Literal{l, c, b}, ps); ok {
		t.Error("not L first must not be executable")
	}
}

func TestAdornNegatedNeedsSomePattern(t *testing.T) {
	// All vars bound but the negated relation has no pattern at all.
	ps := NewSet().MustAdd("R", "o")
	r := logic.Pos(logic.NewAtom("R", logic.Var("x")))
	n := logic.Neg(logic.NewAtom("M", logic.Var("x")))
	if _, ok := AdornInOrder([]logic.Literal{r, n}, ps); ok {
		t.Error("negated literal over a relation with no access pattern must not be executable")
	}
	ps.MustAdd("M", "i")
	plan, ok := AdornInOrder([]logic.Literal{r, n}, ps)
	if !ok || plan[1].Pattern != "i" {
		t.Errorf("negated literal with all vars bound must use some pattern; got %v %v", plan, ok)
	}
}

func TestAdornStrategies(t *testing.T) {
	// B has a narrow (two-input) and a wide (one-input) pattern; with
	// both variables bound, the strategies pick opposite ones.
	ps := NewSet().MustAdd("S", "oo").MustAdd("B", "iio").MustAdd("B", "ioo")
	body := []logic.Literal{
		logic.Pos(logic.NewAtom("S", logic.Var("x"), logic.Var("y"))),
		logic.Pos(logic.NewAtom("B", logic.Var("x"), logic.Var("y"), logic.Var("z"))),
	}
	most, ok := AdornInOrderPrefer(body, ps, PreferMostInputs)
	if !ok || most[1].Pattern != "iio" {
		t.Errorf("most-inputs strategy picked %v", most)
	}
	least, ok := AdornInOrderPrefer(body, ps, PreferFewestInputs)
	if !ok || least[1].Pattern != "ioo" {
		t.Errorf("fewest-inputs strategy picked %v", least)
	}
	// Strategy never changes executability.
	if _, okM := AdornInOrderPrefer(body[1:], ps, PreferMostInputs); okM {
		t.Error("B alone is not executable under either strategy")
	}
	if _, okL := AdornInOrderPrefer(body[1:], ps, PreferFewestInputs); okL {
		t.Error("B alone is not executable under either strategy")
	}
	// Negated literals honor the strategy too.
	ps2 := NewSet().MustAdd("R", "oo").MustAdd("M", "io").MustAdd("M", "oo")
	body2 := []logic.Literal{
		logic.Pos(logic.NewAtom("R", logic.Var("x"), logic.Var("y"))),
		logic.Neg(logic.NewAtom("M", logic.Var("x"), logic.Var("y"))),
	}
	m2, _ := AdornInOrderPrefer(body2, ps2, PreferMostInputs)
	l2, _ := AdornInOrderPrefer(body2, ps2, PreferFewestInputs)
	if m2[1].Pattern != "io" || l2[1].Pattern != "oo" {
		t.Errorf("negated strategy patterns = %v / %v", m2[1].Pattern, l2[1].Pattern)
	}
}

func TestExecutableCQ(t *testing.T) {
	ps := paperPatterns()
	q := logic.CQ{
		HeadPred: "Q",
		HeadArgs: []logic.Term{logic.Var("i"), logic.Var("a"), logic.Var("t")},
		Body: []logic.Literal{
			logic.Pos(logic.NewAtom("C", logic.Var("i"), logic.Var("a"))),
			logic.Pos(logic.NewAtom("B", logic.Var("i"), logic.Var("a"), logic.Var("t"))),
			logic.Neg(logic.NewAtom("L", logic.Var("i"))),
		},
	}
	if !ExecutableCQ(q, ps) {
		t.Error("reordered Example 1 must be executable")
	}
	if !ExecutableCQ(logic.FalseQuery("Q", nil), ps) {
		t.Error("false must be vacuously executable")
	}
	if ExecutableCQ(logic.CQ{HeadPred: "Q"}, ps) {
		t.Error("true (empty body) must not be executable")
	}
	if !ExecutableUCQ(logic.Union(q, q), ps) {
		t.Error("union of executable rules must be executable")
	}
}

// The fingerprint is memoized, and an Add after a first String shows in
// the next one, whether the Add registers a new relation, a new pattern
// of a known one, or (changing nothing) a duplicate.
func TestSetFingerprintFollowsAdd(t *testing.T) {
	s := NewSet()
	if got := s.String(); got != "" {
		t.Fatalf("empty set renders %q", got)
	}
	s.MustAdd("R", "io")
	if got := s.String(); got != "R^io" {
		t.Fatalf("after Add R^io: %q", got)
	}
	if a, b := s.String(), s.String(); a != b {
		t.Fatalf("two renderings differ: %q, %q", a, b)
	}
	s.MustAdd("A", "o").MustAdd("R", "oo").MustAdd("R", "io")
	if got, want := s.String(), "A^o R^io R^oo"; got != want {
		t.Fatalf("after more Adds: %q, want %q", got, want)
	}
	if n := testing.AllocsPerRun(10, func() { _ = s.String() }); n != 0 {
		t.Errorf("a memoized String allocated %.0f times", n)
	}
	if got := s.Clone().String(); got != "A^o R^io R^oo" {
		t.Errorf("a clone renders %q", got)
	}
	if got := s.Minimize().String(); got != "A^o R^oo" {
		t.Errorf("the minimized set renders %q", got)
	}
}

// Concurrent first Strings race only to store the same rendering; run
// under -race.
func TestSetFingerprintConcurrent(t *testing.T) {
	s := NewSet().MustAdd("B", "ioo").MustAdd("B", "oio").MustAdd("C", "oo")
	const want = "B^ioo B^oio C^oo"
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if got := s.String(); got != want {
					t.Errorf("String() = %q, want %q", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
