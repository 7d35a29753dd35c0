// Package cli implements the command-line front ends (feasible, plan,
// answer) as testable functions: each takes argument list and streams
// and returns a process exit code. The binaries under cmd/ are thin
// wrappers around these.
package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	ucqn "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/parser"
)

// Exit codes shared by the commands.
const (
	ExitOK         = 0
	ExitInfeasible = 1
	ExitUsage      = 2
)

type env struct {
	stdin          io.Reader
	stdout, stderr io.Writer
	readFile       func(string) ([]byte, error)
}

func newEnv(stdin io.Reader, stdout, stderr io.Writer) env {
	return env{stdin: stdin, stdout: stdout, stderr: stderr, readFile: os.ReadFile}
}

func (e env) failf(cmd, format string, args ...any) int {
	fmt.Fprintf(e.stderr, "%s: %s\n", cmd, fmt.Sprintf(format, args...))
	return ExitUsage
}

// readQuery loads the query from the file or, when path is empty, stdin.
func (e env) readQuery(path string) (logic.UCQ, error) {
	var data []byte
	var err error
	if path == "" {
		data, err = io.ReadAll(e.stdin)
	} else {
		data, err = e.readFile(path)
	}
	if err != nil {
		return logic.UCQ{}, err
	}
	return parser.ParseUCQ(string(data))
}

// Feasible is the `feasible` command: decide executability,
// orderability, and feasibility, with optional -verbose detail.
func Feasible(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	e := newEnv(stdin, stdout, stderr)
	fs := flag.NewFlagSet("feasible", flag.ContinueOnError)
	fs.SetOutput(stderr)
	patterns := fs.String("patterns", "", "access patterns, e.g. 'B^ioo C^oo' (required)")
	queryFile := fs.String("query", "", "file with the query rules (default: stdin)")
	verbose := fs.Bool("verbose", false, "also print ans(Q) and the PLAN* plans")
	if err := fs.Parse(args); err != nil {
		return ExitUsage
	}
	if *patterns == "" {
		return e.failf("feasible", "-patterns is required")
	}
	ps, err := parser.ParsePatterns(*patterns)
	if err != nil {
		return e.failf("feasible", "%v", err)
	}
	q, err := e.readQuery(*queryFile)
	if err != nil {
		return e.failf("feasible", "%v", err)
	}

	fmt.Fprintf(stdout, "query:\n%s\n", indent(q.String()))
	fmt.Fprintf(stdout, "patterns: %s\n\n", ps)
	fmt.Fprintf(stdout, "executable as written: %v\n", core.Executable(q, ps))
	fmt.Fprintf(stdout, "orderable:             %v\n", core.OrderableUCQ(q, ps))
	ex := core.ExplainFeasible(q, ps)
	res := ex.Result
	fmt.Fprintf(stdout, "feasible:              %v   (%s)\n", res.Feasible, res.Verdict)
	if res.Nodes > 0 {
		fmt.Fprintf(stdout, "containment nodes:     %d\n", res.Nodes)
	}
	if *verbose {
		fmt.Fprintf(stdout, "\nans(Q):\n%s\n", indent(core.AnswerableUCQ(q, ps).String()))
		fmt.Fprintf(stdout, "\n%s\n", res.Plans)
		for i, w := range ex.Witnesses {
			fmt.Fprintf(stdout, "\ncontainment witness for overestimate rule %d:\n%s\n", i+1, indent(w.String()))
		}
	}
	if ordered, ok := core.ReorderUCQ(q, ps); ok && !core.Executable(q, ps) {
		fmt.Fprintf(stdout, "\nexecutable reordering:\n%s\n", indent(ordered.String()))
	}
	if !res.Feasible {
		return ExitInfeasible
	}
	return ExitOK
}

// Plan is the `plan` command: print the PLAN* decomposition.
func Plan(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	e := newEnv(stdin, stdout, stderr)
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	patterns := fs.String("patterns", "", "access patterns (required)")
	queryFile := fs.String("query", "", "file with the query rules (default: stdin)")
	if err := fs.Parse(args); err != nil {
		return ExitUsage
	}
	if *patterns == "" {
		return e.failf("plan", "-patterns is required")
	}
	ps, err := parser.ParsePatterns(*patterns)
	if err != nil {
		return e.failf("plan", "%v", err)
	}
	q, err := e.readQuery(*queryFile)
	if err != nil {
		return e.failf("plan", "%v", err)
	}

	plans := core.ComputePlans(q, ps)
	for i, ra := range plans.Rules {
		fmt.Fprintf(stdout, "rule %d: %s\n", i+1, ra.Rule)
		fmt.Fprintf(stdout, "  answerable part:   %s\n", ra.Ans)
		if len(ra.Unanswerable) > 0 {
			fmt.Fprintf(stdout, "  unanswerable part:")
			for _, l := range ra.Unanswerable {
				fmt.Fprintf(stdout, " %s", l)
			}
			fmt.Fprintln(stdout)
		}
		if !ra.Under.False {
			if steps, err := core.ExecutionOrder(ra.Under, ps); err == nil {
				fmt.Fprintf(stdout, "  execution steps:  ")
				for _, s := range steps {
					fmt.Fprintf(stdout, " %s", s)
				}
				fmt.Fprintln(stdout)
			}
		}
	}
	fmt.Fprintf(stdout, "\n%s\n", plans)
	switch {
	case plans.UnderEqualsOver():
		fmt.Fprintln(stdout, "\nQ^u = Q^o: the query is feasible (orderable).")
	case plans.HasNull():
		fmt.Fprintln(stdout, "\nthe overestimate contains null: the query is infeasible.")
	default:
		fmt.Fprintln(stdout, "\nQ^u ≠ Q^o: run `feasible` for the exact (Π₂ᴾ) test.")
	}
	return ExitOK
}

// Answer is the `answer` command: run ANSWER* against an instance file.
func Answer(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	e := newEnv(stdin, stdout, stderr)
	fs := flag.NewFlagSet("answer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	patterns := fs.String("patterns", "", "access patterns (required)")
	queryFile := fs.String("query", "", "file with the query rules (default: stdin)")
	dataFile := fs.String("data", "", "file with ground facts (required)")
	improve := fs.Bool("improve", false, "improve the underestimate with domain enumeration views")
	maxCalls := fs.Int("maxcalls", 100000, "source-call budget for domain enumeration")
	if err := fs.Parse(args); err != nil {
		return ExitUsage
	}
	if *patterns == "" || *dataFile == "" {
		return e.failf("answer", "-patterns and -data are required")
	}
	ps, err := parser.ParsePatterns(*patterns)
	if err != nil {
		return e.failf("answer", "%v", err)
	}
	q, err := e.readQuery(*queryFile)
	if err != nil {
		return e.failf("answer", "%v", err)
	}
	facts, err := e.readFile(*dataFile)
	if err != nil {
		return e.failf("answer", "%v", err)
	}
	in := engine.NewInstance()
	if err := in.ParseInto(string(facts)); err != nil {
		return e.failf("answer", "%v", err)
	}
	cat, err := in.Catalog(ps)
	if err != nil {
		return e.failf("answer", "%v", err)
	}
	opts := []ucqn.ExecOption{ucqn.WithProfile()}
	if *improve {
		opts = append(opts, ucqn.WithImproveUnder(*maxCalls))
	}
	res, err := ucqn.Exec(context.Background(), q, ps, cat, opts...)
	if err != nil {
		return e.failf("answer", "%v", err)
	}
	rep, _ := res.Report()
	fmt.Fprintln(stdout, rep)
	prof, _ := res.Profile()
	fmt.Fprintf(stdout, "source traffic: %d calls, %d tuples\n", prof.Calls.Total, prof.TotalTuples())

	if rules, dom, ok := res.Improved(); ok && !rep.Complete() {
		improved, err := res.Rel()
		if err != nil {
			return e.failf("answer", "%v", err)
		}
		fmt.Fprintf(stdout, "\ndomain enumeration: %d values, %d calls (truncated: %v)\n",
			len(dom.Values), dom.Calls, dom.Truncated)
		if len(rules.Rules) > 0 {
			fmt.Fprintln(stdout, "improved underestimate rules:")
			for _, r := range rules.Rules {
				fmt.Fprintf(stdout, "  %s\n", r)
			}
		}
		fmt.Fprintf(stdout, "improved underestimate (%d tuples):\n", improved.Len())
		for _, row := range improved.Sorted() {
			fmt.Fprintf(stdout, "  %s\n", row)
		}
	}
	return ExitOK
}

func indent(s string) string {
	return "  " + strings.ReplaceAll(s, "\n", "\n  ")
}
