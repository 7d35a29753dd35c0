package engine

// The map evaluator: the engine's original per-binding loop, kept as
// the reference the columnar executor is tested against. It carries
// each binding as a map[string]string and re-unifies every returned
// tuple against every binding (tupleMatches); the only things it shares
// with production evaluation are the source-call runtime (execution.issue)
// and which outcomes a call keeps (stepCall.kept) — its call memo is its
// own, string-keyed — so a disagreement in rows, order, calls, or dedup
// counts points at the compiled slot programs, the call table, the hash
// join, or the schedules.

import (
	"context"
	"fmt"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/sources"
)

// oracleEval evaluates the union rule by rule, in order, through the
// map evaluator. With partial set, a degradable rule failure drops the
// rule and is recorded, exactly as Opts.Partial specifies; inc is nil
// otherwise. The profile carries per-step accounting only.
func oracleEval(ctx context.Context, rt *Runtime, u logic.UCQ, ps *access.Set, cat *sources.Catalog, partial bool) (*Rel, Profile, *Report, error) {
	out := NewRel()
	var prof Profile
	var inc *Report
	if partial {
		inc = &Report{}
	}
	x := rt.newExecution(cat, Opts{}, false, nil)
	var memo oracleCalls // one question, one call, across the union
	if rt.Dedup {
		memo = oracleCalls{}
	}
	for i, rule := range u.Rules {
		if rule.False {
			continue
		}
		if inc != nil {
			inc.RulesTotal++
		}
		steps, ok := access.AdornInOrder(rule.Body, ps)
		if !ok {
			return nil, Profile{}, nil, fmt.Errorf("%w: %s", core.ErrNotOrderable, rule)
		}
		prof.Rules = append(prof.Rules, RuleProfile{Rule: rule.Clone()})
		target := NewRel() // a rule that dies mid-head leaves no rows behind
		if err := x.runStepsMap(ctx, rule, steps, target, &prof.Rules[len(prof.Rules)-1], memo); err != nil {
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
	prof.finalize()
	return out, prof, inc, nil
}

// runStepsMap drives the nested-loop map-based execution of an adorned
// plan. Within a step the runtime batches the bindings' source calls
// (see applyStep), and memo serves the ones asked before; across steps
// the binding set flows left to right as in the paper.
func (x *execution) runStepsMap(ctx context.Context, q logic.CQ, steps []access.AdornedLiteral, out *Rel, prof *RuleProfile, memo oracleCalls) error {
	bindings := []binding{{}}
	for _, step := range steps {
		sp := StepProfile{Step: step, BindingsIn: len(bindings)}
		var err error
		bindings, err = x.applyStep(ctx, step, bindings, &sp, memo)
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

// oracleCalls is the map evaluator's call memo across an execution:
// relation, pattern and input key → the call that answered them, built
// from strings where the columnar executor's call table (calltable.go)
// is keyed by IDs. Nil is no memo beyond the step's own.
type oracleCalls map[string]*stepCall

// applyStep runs one adorned literal over the current binding set: group
// bindings into distinct calls, serve from memo the ones asked before —
// failing, without a call, when one of those failed — issue the rest,
// fan the results back out. Traffic is recorded into sp.
func (x *execution) applyStep(ctx context.Context, step access.AdornedLiteral, bindings []binding, sp *StepProfile, memo oracleCalls) ([]binding, error) {
	src := x.cat.Source(step.Literal.Atom.Pred)
	if src == nil {
		return nil, fmt.Errorf("engine: no source for relation %s", step.Literal.Atom.Pred)
	}
	var calls, failed []*stepCall
	var keys []string
	callOf := make([]*stepCall, len(bindings))
	byKey := map[string]*stepCall{}
	for i, b := range bindings {
		inputs, err := callInputs(step, b)
		if err != nil {
			return nil, err
		}
		key := step.Literal.Atom.Pred + "^" + string(step.Pattern) + "\x00" + sources.Key(inputs)
		if c, ok := byKey[key]; ok && x.rt.Dedup {
			callOf[i] = c
			sp.DedupedCalls++
			continue
		}
		c, ok := memo[key]
		if ok {
			sp.DedupedCalls++
			if c.err != nil {
				failed = append(failed, c)
			}
		} else {
			c = &stepCall{inputs: inputs}
			calls, keys = append(calls, c), append(keys, key)
		}
		byKey[key] = c
		callOf[i] = c
	}
	if failed != nil {
		return nil, callFailures(failed, step)
	}
	err := x.issue(ctx, src, step, calls, sp, &stepState{})
	for k, c := range calls {
		if memo != nil && c.kept() {
			memo[keys[k]] = c
		}
	}
	if err != nil {
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
