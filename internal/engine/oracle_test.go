package engine

// The map evaluator: the engine's original per-binding loop, kept as
// the reference the columnar executor is tested against. It carries
// each binding as a map[string]string and re-unifies every returned
// tuple against every binding (tupleMatches); the only thing it shares
// with production evaluation is the source-call runtime (Runtime.issue),
// so a disagreement in rows, order, calls, or dedup counts points at the
// compiled slot programs, the hash join, or the schedules.

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/access"
	"repro/internal/logic"
	"repro/internal/sources"
)

// oracleEval evaluates the union rule by rule, in order, through the
// map evaluator. With partial set, a degradable rule failure drops the
// rule and is recorded, exactly as Opts.Partial specifies; inc is nil
// otherwise. The profile carries per-step accounting only.
func oracleEval(ctx context.Context, rt *Runtime, u logic.UCQ, ps *access.Set, cat *sources.Catalog, partial bool) (*Rel, Profile, *Incompleteness, error) {
	out := NewRel()
	var prof Profile
	var inc *Incompleteness
	if partial {
		inc = &Incompleteness{}
	}
	budget := rt.newBudget()
	for i, rule := range u.Rules {
		if rule.False {
			continue
		}
		if inc != nil {
			inc.RulesTotal++
		}
		steps, ok := access.AdornInOrder(rule.Body, ps)
		if !ok {
			return nil, Profile{}, nil, fmt.Errorf("%w: %s", errNotExecutable, rule)
		}
		prof.Rules = append(prof.Rules, RuleProfile{Rule: rule.Clone()})
		target := NewRel() // a rule that dies mid-head leaves no rows behind
		if err := rt.runStepsMap(ctx, rule, steps, cat, target, &prof.Rules[len(prof.Rules)-1], budget); err != nil {
			if inc == nil || !degradable(ctx, err) {
				return nil, Profile{}, nil, err
			}
			inc.record(i, rule, err)
			continue
		}
		out.AddAll(target)
	}
	if inc != nil {
		inc.RulesSurvived = inc.RulesTotal - len(inc.Failed)
	}
	return out, prof, inc, nil
}

// runStepsMap drives the nested-loop map-based execution of an adorned
// plan. Within a step the runtime batches the bindings' source calls
// (see applyStep); across steps the binding set flows left to right as
// in the paper.
func (rt *Runtime) runStepsMap(ctx context.Context, q logic.CQ, steps []access.AdornedLiteral, cat *sources.Catalog, out *Rel, prof *RuleProfile, budget *budgetState) error {
	bindings := []binding{{}}
	for _, step := range steps {
		sp := StepProfile{Step: step, BindingsIn: len(bindings)}
		var err error
		bindings, err = rt.applyStep(ctx, step, cat, bindings, &sp, budget)
		sp.BindingsOut = len(bindings)
		prof.Steps = append(prof.Steps, sp)
		if err != nil {
			return err
		}
		if len(bindings) == 0 {
			return nil
		}
	}
	for _, b := range bindings {
		row, err := headRow(q, b)
		if err != nil {
			return err
		}
		if out.Add(row) {
			prof.Answers++
		}
	}
	return nil
}

// callInputs extracts the values for the input slots of the step's
// pattern from the binding; executability guarantees they exist.
func callInputs(step access.AdornedLiteral, b binding) ([]string, error) {
	var inputs []string
	for j, t := range step.Literal.Atom.Args {
		if !step.Pattern.Input(j) {
			continue
		}
		switch {
		case t.IsConst():
			inputs = append(inputs, t.Name)
		case t.IsVar():
			v, ok := b[t.Name]
			if !ok {
				return nil, fmt.Errorf("engine: input slot %d of %s needs unbound variable %s", j+1, step, t.Name)
			}
			inputs = append(inputs, v)
		default:
			return nil, fmt.Errorf("engine: null cannot be used as a call input in %s", step)
		}
	}
	return inputs, nil
}

// applyStep runs one adorned literal over the current binding set: group
// bindings into distinct calls, issue the calls, fan the results back
// out. Traffic is recorded into sp.
func (rt *Runtime) applyStep(ctx context.Context, step access.AdornedLiteral, cat *sources.Catalog, bindings []binding, sp *StepProfile, budget *budgetState) ([]binding, error) {
	src := cat.Source(step.Literal.Atom.Pred)
	if src == nil {
		return nil, fmt.Errorf("engine: no source for relation %s", step.Literal.Atom.Pred)
	}
	calls := make([]*stepCall, 0, len(bindings))
	callOf := make([]*stepCall, len(bindings))
	byKey := map[string]*stepCall{}
	for i, b := range bindings {
		inputs, err := callInputs(step, b)
		if err != nil {
			return nil, err
		}
		key := strings.Join(inputs, "\x1f")
		if c, ok := byKey[key]; ok && rt.Dedup {
			callOf[i] = c
			sp.DedupedCalls++
			continue
		}
		c := &stepCall{inputs: inputs}
		byKey[key] = c
		calls = append(calls, c)
		callOf[i] = c
	}
	if err := rt.issue(ctx, src, step, calls, sp, budget); err != nil {
		return nil, err
	}
	// Fan back out in the original binding order: the output bindings —
	// and hence everything downstream — are identical to sequential
	// evaluation, whatever order the calls completed in.
	var next []binding
	for i, b := range bindings {
		tuples := callOf[i].rows
		if step.Literal.Negated {
			// Filter: keep the binding iff no returned tuple matches the
			// (fully bound) arguments.
			matched := false
			for _, t := range tuples {
				if tupleMatches(step.Literal.Atom, t, b) != nil {
					matched = true
					break
				}
			}
			if !matched {
				next = append(next, b)
			}
			continue
		}
		for _, t := range tuples {
			if nb := tupleMatches(step.Literal.Atom, t, b); nb != nil {
				next = append(next, nb)
			}
		}
	}
	return next, nil
}
