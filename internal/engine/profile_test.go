package engine

import (
	"context"
	"strings"
	"testing"
)

func TestAnswerProfiled(t *testing.T) {
	in := NewInstance()
	for _, x := range []string{"a", "b", "c"} {
		in.MustAdd("R", x, "k")
	}
	in.MustAdd("T", "k", "v")
	in.MustAdd("L", "b")
	ps := pats(t, `R^oo T^io L^i`)
	cat := in.MustCatalog(ps)
	u := ucq(t, `Q(x, y) :- R(x, z), not L(x), T(z, y).`)

	rel, prof, _, err := eval(context.Background(), defaultRuntime, u, ps, cat, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 2 {
		t.Fatalf("answers = %s", rel)
	}
	if len(prof.Rules) != 1 || len(prof.Rules[0].Steps) != 3 {
		t.Fatalf("profile shape: %+v", prof)
	}
	steps := prof.Rules[0].Steps
	// R^oo: one call, 3 tuples, bindings 1→3.
	if steps[0].Calls != 1 || steps[0].TuplesReturned != 3 || steps[0].BindingsIn != 1 || steps[0].BindingsOut != 3 {
		t.Errorf("R step = %+v", steps[0])
	}
	// not L: 3 calls (one per binding), filters b out: 3→2.
	if steps[1].Calls != 3 || steps[1].BindingsOut != 2 {
		t.Errorf("L step = %+v", steps[1])
	}
	// T^io: both surviving bindings share the input key k, so the
	// runtime issues 1 call and dedupes the other: 1 tuple, 2→2.
	if steps[2].Calls != 1 || steps[2].DedupedCalls != 1 || steps[2].BindingsOut != 2 {
		t.Errorf("T step = %+v", steps[2])
	}
	if prof.Calls.Total != 5 {
		t.Errorf("Calls.Total = %d, want 5", prof.Calls.Total)
	}
	if prof.Calls.Deduped != 1 {
		t.Errorf("Calls.Deduped = %d, want 1", prof.Calls.Deduped)
	}
	if prof.TotalTuples() != 4+steps[1].TuplesReturned {
		t.Errorf("TotalTuples = %d", prof.TotalTuples())
	}
	if prof.Rules[0].Answers != 2 {
		t.Errorf("Answers = %d", prof.Rules[0].Answers)
	}
	if prof.Elapsed <= 0 || prof.Rules[0].Elapsed <= 0 {
		t.Errorf("wall-clock missing: plan=%v rule=%v", prof.Elapsed, prof.Rules[0].Elapsed)
	}
	for i, sp := range steps {
		if sp.Elapsed <= 0 {
			t.Errorf("step %d has no elapsed time", i)
		}
	}
	// Materializing evaluation holds input+output binding sets of the
	// widest step: R^oo goes 1→3, ¬L 3→2, T^io 2→2, so the peak is 3+2=5.
	if prof.Rules[0].PeakBindings != 5 || prof.PeakBindings() != 5 {
		t.Errorf("PeakBindings = %d (rule %d), want 5", prof.PeakBindings(), prof.Rules[0].PeakBindings)
	}
	s := prof.String()
	for _, want := range []string{"rule 1:", "calls=", "dedup=", "bindings 1→3", "(2 answers"} {
		if !strings.Contains(s, want) {
			t.Errorf("Profile.String() missing %q:\n%s", want, s)
		}
	}
}

// The profile's totals agree with the catalog's meters.
func TestProfileAgreesWithMeters(t *testing.T) {
	in := bookstore(t)
	ps := pats(t, `B^ioo B^oio C^oo L^o`)
	cat := in.MustCatalog(ps)
	u := ucq(t, `Q(i, a, t) :- C(i, a), B(i, a, t), not L(i).`)
	_, prof, _, err := eval(context.Background(), defaultRuntime, u, ps, cat, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	st := cat.TotalStats()
	if prof.Calls.Total != st.Calls {
		t.Errorf("profile calls %d != meter calls %d", prof.Calls.Total, st.Calls)
	}
	if prof.TotalTuples() != st.TuplesReturned {
		t.Errorf("profile tuples %d != meter tuples %d", prof.TotalTuples(), st.TuplesReturned)
	}
}

func TestAnswerProfiledSkipsFalseRules(t *testing.T) {
	in := NewInstance().MustAdd("R", "a")
	ps := pats(t, `R^o`)
	cat := in.MustCatalog(ps)
	u := ucq(t, "Q(x) :- R(x).\nQ(x) :- false.")
	rel, prof, _, err := eval(context.Background(), defaultRuntime, u, ps, cat, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if rel.Len() != 1 || len(prof.Rules) != 1 {
		t.Errorf("rel=%s profile rules=%d", rel, len(prof.Rules))
	}
}
