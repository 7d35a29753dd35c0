package cli

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strings"

	ucqn "repro"
	"repro/internal/access"
	"repro/internal/constraints"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logic"
	"repro/internal/parser"
)

// Repl is an interactive session for exploring queries under limited
// access patterns. Lines are commands or query rules:
//
//	:patterns B^ioo B^oio C^oo L^o    declare access patterns
//	:fact B("i1", "knuth", "taocp").  add facts to the instance
//	:inds R[1] < S[0]                 declare inclusion dependencies
//	:feasible                         analyze the staged query
//	:answer                           run ANSWER* on the staged query
//	:plan                             show the PLAN* decomposition
//	:show                             show the session state
//	:clear                            drop the staged query
//	:help                             this text
//	:quit                             leave
//
// Anything else is parsed as query rules and staged (multi-line queries
// accumulate until a command runs them).
func Repl(stdin io.Reader, stdout, stderr io.Writer) int {
	s := &session{out: stdout, errw: stderr, in: engine.NewInstance()}
	fmt.Fprintln(stdout, "ucqn shell — :help for commands")
	sc := bufio.NewScanner(stdin)
	for {
		fmt.Fprint(stdout, "> ")
		if !sc.Scan() {
			fmt.Fprintln(stdout)
			return ExitOK
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == ":quit" || line == ":exit" {
			return ExitOK
		}
		s.handle(line)
	}
}

type session struct {
	out, errw io.Writer
	patterns  *access.Set // nil until :patterns runs
	inds      constraints.Set
	in        *engine.Instance
	staged    []string // staged rule lines
}

func (s *session) handle(line string) {
	switch {
	case strings.HasPrefix(line, ":patterns"):
		s.setPatterns(strings.TrimSpace(strings.TrimPrefix(line, ":patterns")))
	case strings.HasPrefix(line, ":fact"):
		s.addFacts(strings.TrimSpace(strings.TrimPrefix(line, ":fact")))
	case strings.HasPrefix(line, ":inds"):
		s.setINDs(strings.TrimSpace(strings.TrimPrefix(line, ":inds")))
	case line == ":feasible":
		s.feasible()
	case line == ":plan":
		s.plan()
	case line == ":answer":
		s.answer()
	case line == ":show":
		s.show()
	case line == ":clear":
		s.staged = nil
		fmt.Fprintln(s.out, "query cleared")
	case line == ":help":
		fmt.Fprintln(s.out, replHelp)
	case strings.HasPrefix(line, ":"):
		fmt.Fprintf(s.errw, "unknown command %s (:help)\n", line)
	default:
		s.stage(line)
	}
}

const replHelp = `  :patterns B^ioo C^oo   declare access patterns
  :fact R("a", "b").     add facts
  :inds R[1] < S[0]      declare inclusion dependencies
  :feasible              analyze the staged query (uses :inds if set)
  :plan                  PLAN* decomposition of the staged query
  :answer                run ANSWER* against the facts
  :show                  session state    :clear  drop staged query
  :quit                  leave
  other lines            staged as query rules`

func (s *session) setPatterns(src string) {
	ps, err := parser.ParsePatterns(src)
	if err != nil {
		fmt.Fprintln(s.errw, err)
		return
	}
	s.patterns = ps
	fmt.Fprintf(s.out, "patterns: %s\n", ps)
}

func (s *session) addFacts(src string) {
	if err := s.in.ParseInto(src); err != nil {
		fmt.Fprintln(s.errw, err)
		return
	}
	fmt.Fprintf(s.out, "instance now has %d tuples\n", s.in.Size())
}

func (s *session) setINDs(src string) {
	inds, err := constraints.Parse(src)
	if err != nil {
		fmt.Fprintln(s.errw, err)
		return
	}
	s.inds = inds
	fmt.Fprintf(s.out, "%d inclusion dependencies\n", len(inds))
}

func (s *session) stage(line string) {
	// Validate incrementally: the staged lines so far plus this one must
	// be a parseable prefix or a complete query.
	candidate := append(append([]string{}, s.staged...), line)
	if _, err := parser.ParseUCQ(strings.Join(candidate, "\n")); err != nil {
		fmt.Fprintln(s.errw, err)
		return
	}
	s.staged = candidate
	fmt.Fprintf(s.out, "staged %d rule(s)\n", len(s.staged))
}

func (s *session) query() (logic.UCQ, bool) {
	if len(s.staged) == 0 {
		fmt.Fprintln(s.errw, "no query staged; enter rules first")
		return logic.UCQ{}, false
	}
	u, err := parser.ParseUCQ(strings.Join(s.staged, "\n"))
	if err != nil {
		fmt.Fprintln(s.errw, err)
		return logic.UCQ{}, false
	}
	return u, true
}

func (s *session) feasible() {
	u, ok := s.query()
	if !ok {
		return
	}
	if s.patterns == nil {
		fmt.Fprintln(s.errw, "no patterns declared; use :patterns")
		return
	}
	ps := s.patterns
	target := u
	if len(s.inds) > 0 {
		target = s.inds.OptimizeChase(u)
		if len(target.Rules) < len(u.Rules) {
			fmt.Fprintf(s.out, "semantic optimizer dropped %d rule(s)\n", len(u.Rules)-len(target.Rules))
		}
	}
	fmt.Fprintf(s.out, "executable: %v\n", core.Executable(target, ps))
	fmt.Fprintf(s.out, "orderable:  %v\n", core.OrderableUCQ(target, ps))
	res := core.Feasible(target, ps)
	fmt.Fprintf(s.out, "feasible:   %v (%s)\n", res.Feasible, res.Verdict)
	if ordered, ok := core.ReorderUCQ(target, ps); ok && !core.Executable(target, ps) {
		fmt.Fprintf(s.out, "plan:\n%s\n", ordered)
	}
}

func (s *session) plan() {
	u, ok := s.query()
	if !ok {
		return
	}
	if s.patterns == nil {
		fmt.Fprintln(s.errw, "no patterns declared; use :patterns")
		return
	}
	fmt.Fprintln(s.out, core.ComputePlans(u, s.patterns).String())
}

func (s *session) answer() {
	u, ok := s.query()
	if !ok {
		return
	}
	if s.patterns == nil {
		fmt.Fprintln(s.errw, "no patterns declared; use :patterns")
		return
	}
	cat, err := s.in.Catalog(s.patterns)
	if err != nil {
		fmt.Fprintln(s.errw, err)
		return
	}
	res, err := ucqn.Exec(context.Background(), u, s.patterns, cat)
	if err != nil {
		fmt.Fprintln(s.errw, err)
		return
	}
	rep, _ := res.Report()
	fmt.Fprintln(s.out, rep)
}

func (s *session) show() {
	if s.patterns != nil {
		fmt.Fprintf(s.out, "patterns: %s\n", s.patterns)
	} else {
		fmt.Fprintln(s.out, "patterns: (none)")
	}
	fmt.Fprintf(s.out, "instance: %d tuples over %v\n", s.in.Size(), s.in.Relations())
	fmt.Fprintf(s.out, "inds:     %d\n", len(s.inds))
	if len(s.staged) > 0 {
		fmt.Fprintf(s.out, "query:\n  %s\n", strings.Join(s.staged, "\n  "))
	} else {
		fmt.Fprintln(s.out, "query:    (none)")
	}
}
