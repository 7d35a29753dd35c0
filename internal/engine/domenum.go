package engine

import (
	"context"
	"slices"
	"sort"
	"strings"

	"repro/internal/access"
	"repro/internal/logic"
	"repro/internal/sources"
)

// DomRelation is the reserved name of the synthetic unary domain
// enumeration view dom(x) (Example 8 of the paper).
const DomRelation = "__dom"

// DomResult is the outcome of domain enumeration.
type DomResult struct {
	// Values is the enumerated partial domain, sorted.
	Values []string
	// Calls is the number of source calls spent enumerating.
	Calls int
	// Truncated reports that enumeration stopped short of the fixpoint:
	// the call budget ran out, the context was cancelled, or some call
	// failed — returned an error or panicked. Values is then an
	// under-approximation of the reachable domain (still sound for
	// underestimates).
	Truncated bool
	// TruncatedBy names the relations whose calls failed, each once, in
	// the order they first failed; empty when only the budget or the
	// context cut the enumeration short.
	TruncatedBy []string
}

// EnumerateDomain computes a partial domain enumeration view over the
// catalog, in the style of [DL97] (recursive plans for information
// gathering): starting from the seed constants and everything obtainable
// from sources callable with no inputs, it repeatedly calls every source
// pattern with all combinations of already-known values until no new
// value appears or maxCalls source calls have been spent. The result is
// the set of values retrievable from the sources, a sound domain for
// dom(x) atoms.
func EnumerateDomain(cat *sources.Catalog, seeds []string, maxCalls int) DomResult {
	res, _ := EnumerateDomainContext(context.Background(), cat, seeds, maxCalls)
	return res
}

// EnumerateDomainContext is EnumerateDomain honoring a context: on
// cancellation it stops issuing calls and returns the context error
// alongside the (truncated, still sound) domain enumerated so far.
func EnumerateDomainContext(ctx context.Context, cat *sources.Catalog, seeds []string, maxCalls int) (DomResult, error) {
	dom := map[string]bool{}
	for _, s := range seeds {
		dom[s] = true
	}
	res := DomResult{}
	called := map[string]bool{} // source^pattern(inputs) already issued
	for {
		grew := false
		for _, name := range cat.Names() {
			src := cat.Source(name)
			for _, p := range src.Patterns() {
				grewHere, stop, err := enumeratePattern(ctx, src, p, dom, called, &res, maxCalls)
				grew = grew || grewHere
				if stop || err != nil {
					res.Truncated = true
					res.Values = sortedKeys(dom)
					return res, err
				}
			}
		}
		if !grew {
			break
		}
	}
	res.Values = sortedKeys(dom)
	return res, nil
}

// enumeratePattern issues all not-yet-made calls to src^p whose inputs
// are drawn from dom, adding returned values to dom. It reports whether
// dom grew and whether the call budget ran out; a context error aborts
// the enumeration, and a failed call is skipped and marks res Truncated.
func enumeratePattern(ctx context.Context, src sources.Source, p access.Pattern, dom map[string]bool, called map[string]bool, res *DomResult, maxCalls int) (grew, stop bool, ctxErr error) {
	k := p.InputCount()
	values := sortedKeys(dom)
	if k > 0 && len(values) == 0 {
		return false, false, nil
	}
	inputs := make([]string, k)
	var gauge inFlightGauge
	var rec func(i int) bool // returns true to stop
	rec = func(i int) bool {
		if i == k {
			key := src.Name() + "^" + string(p) + "(" + strings.Join(inputs, "\x1f") + ")"
			if called[key] {
				return false
			}
			if res.Calls >= maxCalls {
				stop = true
				return true
			}
			if err := ctx.Err(); err != nil {
				ctxErr = err
				return true
			}
			called[key] = true
			res.Calls++
			// Through the runtime's one leg: a panicking source, or one
			// answering out of shape, fails the call instead of the process.
			groups, _, err := defaultRuntime.runLeg(ctx, nil, &gauge, src, src.Name(), p, [][]string{append([]string(nil), inputs...)})
			switch {
			case err == nil:
			case ctx.Err() != nil:
				ctxErr = ctx.Err()
				return true
			default:
				res.Truncated = true // the values this call would have shown are missing
				if !slices.Contains(res.TruncatedBy, src.Name()) {
					res.TruncatedBy = append(res.TruncatedBy, src.Name())
				}
				return false
			}
			for _, t := range groups[0] {
				for _, v := range t {
					if !dom[v] {
						dom[v] = true
						grew = true
					}
				}
			}
			return false
		}
		for _, v := range values {
			inputs[i] = v
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	rec(0)
	return grew, stop, ctxErr
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ImprovedUnderRule builds the domain-enumeration-improved underestimate
// rule of Example 8: ansBody ∧ dom(v₁) ∧ … ∧ dom(vₖ) ∧ U, where the vᵢ
// are the variables of the unanswerable part U not bound by the
// answerable part. The rule is executable against a catalog extended
// with the __dom source whenever every relation of U has some access
// pattern (all variables are bound when U runs). It returns ok=false
// when some relation of U has no pattern at all.
func ImprovedUnderRule(ans logic.CQ, unanswerable []logic.Literal, ps *access.Set) (logic.CQ, bool) {
	if ans.False || len(unanswerable) == 0 {
		return logic.CQ{}, false
	}
	bound := map[string]bool{}
	for _, l := range ans.Body {
		for _, v := range l.Vars() {
			bound[v.Name] = true
		}
	}
	out := ans.Clone()
	// Restore the original head: variables the overestimate would null
	// are now bound through dom atoms.
	var need []string
	seen := map[string]bool{}
	for _, l := range unanswerable {
		if !ps.Has(l.Atom.Pred) {
			return logic.CQ{}, false
		}
		for _, v := range l.Vars() {
			if !bound[v.Name] && !seen[v.Name] {
				seen[v.Name] = true
				need = append(need, v.Name)
			}
		}
	}
	for _, v := range need {
		out.Body = append(out.Body, logic.Pos(logic.NewAtom(DomRelation, logic.Var(v))))
	}
	for _, l := range unanswerable {
		out.Body = append(out.Body, l.Clone())
	}
	return out, true
}

// WithDomSource returns a catalog and pattern set extended with the
// __dom relation holding the enumerated values, so improved rules can be
// executed by the ordinary plan executor.
func WithDomSource(cat *sources.Catalog, ps *access.Set, dom []string) (*sources.Catalog, *access.Set, error) {
	rows := make([]sources.Tuple, len(dom))
	for i, v := range dom {
		rows[i] = sources.Tuple{v}
	}
	table, err := sources.NewTable(DomRelation, 1, []access.Pattern{"o"}, rows)
	if err != nil {
		return nil, nil, err
	}
	var srcs []sources.Source
	for _, name := range cat.Names() {
		srcs = append(srcs, cat.Source(name))
	}
	srcs = append(srcs, table)
	next, err := sources.NewCatalog(srcs...)
	if err != nil {
		return nil, nil, err
	}
	ps2 := ps.Clone()
	if err := ps2.Add(DomRelation, "o"); err != nil {
		return nil, nil, err
	}
	return next, ps2, nil
}
