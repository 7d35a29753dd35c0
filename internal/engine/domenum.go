package engine

import (
	"context"
	"slices"
	"strconv"

	"repro/internal/access"
	"repro/internal/core"
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
	// Calls is the number of source call attempts spent enumerating,
	// retries included.
	Calls int
	// Truncated reports that enumeration stopped short of the fixpoint:
	// the call budget ran out, the context was cancelled, or some call
	// failed — after the runtime's retries, or by panicking. Values is
	// then an under-approximation of the reachable domain (still sound
	// for underestimates).
	Truncated bool
	// TruncatedBy names the relations whose calls failed, each once, in
	// the order they first failed; empty when only the budget or the
	// context cut the enumeration short.
	TruncatedBy []string
}

// enumerateDomain computes a partial domain enumeration view over the
// catalog in the style of [DL97] (recursive plans for information
// gathering), as rounds of driver runs. D₀ is the seeds; round r calls
// every pattern of every source once with each input vector of
// Dᵣᵏ ∖ Dᵣ₋₁ᵏ (a pattern with no inputs in round 0 only), and Dᵣ₊₁ adds
// every value returned. The rounds stop at the fixpoint, every vector
// over the final domain called exactly once, or when maxCalls attempts
// are spent (maxCalls ≤ 0 admits none): a sound domain for dom(x) atoms.
//
// A round is one partial-results Run on rt with the calls left as its
// call budget and o's time budget and hedge policy, so retries, call
// deadlines, per-source limits and panic containment are rt's; a failed
// call drops its rule and truncates the domain. On cancellation it
// returns the context error beside the (truncated, still sound) domain
// enumerated so far.
func (rt *Runtime) enumerateDomain(ctx context.Context, cat *sources.Catalog, seeds []string, maxCalls int, o Opts) (DomResult, error) {
	known := map[string]bool{}
	var dom []string // in discovery order; dom[:mark] is enumerated
	add := func(v string) {
		if !known[v] {
			known[v] = true
			dom = append(dom, v)
		}
	}
	for _, s := range seeds {
		add(s)
	}
	sink := func(_ context.Context, _ int, rows []Row) (int, bool) {
		for _, row := range rows {
			for _, v := range row {
				add(v.S)
			}
		}
		return len(rows), true
	}
	var res DomResult
	var err error
	for first, mark := true, 0; err == nil; first = false {
		slices.Sort(dom[mark:])
		left := maxCalls - res.Calls
		plan, more := roundPlan(cat, dom[:mark], dom[mark:], first, max(left, 0))
		mark = len(dom)
		if len(plan.Exec.Rules) > 0 {
			round := Opts{Partial: true, Budget: Budget{MaxCalls: left, MaxTime: o.Budget.MaxTime}, Hedge: o.Hedge}
			prof, inc, rerr := rt.Run(ctx, plan, cat, Answered{}, round, sink)
			res.Calls, err = res.Calls+prof.Calls.Total, rerr
			for _, f := range inc.Failed {
				res.Truncated = true
				if f.Class != FailBudget && f.Source != "" && !slices.Contains(res.TruncatedBy, f.Source) {
					res.TruncatedBy = append(res.TruncatedBy, f.Source)
				}
			}
		}
		res.Truncated = res.Truncated || more || err != nil
		if more || len(dom) == mark {
			break
		}
	}
	slices.Sort(dom)
	res.Values = dom
	return res, err
}

// roundPlan is one round's plan: for every pattern p of every source R,
// one rule __enum(t̄) :- R^p(t̄) per input vector over old ∪ fresh that
// holds a fresh value (in the first round old is empty and every vector
// counts, the empty one included), with the vector at p's input
// positions and fresh variables at its outputs. A rule's one step is its
// literal adorned with p, so no planner picks another pattern. It builds
// at most limit rules, and more reports a vector left out.
func roundPlan(cat *sources.Catalog, old, fresh []string, first bool, limit int) (p core.Plan, more bool) {
	for _, name := range cat.Names() {
		for _, pat := range cat.Source(name).Patterns() {
			args := make([]logic.Term, len(pat))
			var rec func(j int, hasFresh bool) bool // fills args[j:]; false stops
			rec = func(j int, hasFresh bool) bool {
				switch {
				case j == len(pat) && !hasFresh:
					return true // called in an earlier round
				case j == len(pat) && len(p.Exec.Rules) == limit:
					more = true
					return false
				case j == len(pat):
					lit := logic.Pos(logic.NewAtom(name, slices.Clone(args)...))
					p.Exec.Rules = append(p.Exec.Rules, logic.CQ{HeadPred: "__enum", HeadArgs: lit.Atom.Args, Body: []logic.Literal{lit}})
					p.Steps = append(p.Steps, []access.AdornedLiteral{{Literal: lit, Pattern: pat}})
					return true
				case !pat.Input(j):
					args[j] = logic.Var("y" + strconv.Itoa(j))
					return rec(j+1, hasFresh)
				}
				for i, vals := range [2][]string{fresh, old} {
					for _, v := range vals {
						if args[j] = logic.Const(v); !rec(j+1, hasFresh || i == 0) {
							return false
						}
					}
				}
				return true
			}
			if !rec(0, first) {
				return p, more
			}
		}
	}
	return p, more
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
