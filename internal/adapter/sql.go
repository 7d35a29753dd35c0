package adapter

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/access"
	"repro/internal/sources"
)

// SQL adapts a relational table behind database/sql to a limited-access
// source: an adorned access compiles to a parameterized
//
//	SELECT cols FROM table WHERE in-col = ? [AND ...]
//
// for a group of one, and a larger binding group compiles to ONE round
// trip per MaxBatch chunk —
//
//	SELECT cols FROM table WHERE in-col IN (?, ?, ...)
//
// for single-input patterns, an OR of per-vector conjunctions for
// multi-input ones — with the returned rows demultiplexed back to their
// binding by input-column value. Everything the engine sees is the
// ordinary Source contract: the pushdown only changes how many wire
// round trips a step costs.
//
// Driver and DSN come from the backend URL ("sql://driver/dsn"); the
// driver must be registered with database/sql by the importing program
// (tests and the daemons use the in-repo fakedb driver; real
// deployments blank-import their driver of choice). It is safe for
// concurrent use.
type SQL struct {
	name     string
	arity    int
	patterns []access.Pattern
	table    string
	cols     []string
	maxBatch int
	db       *sql.DB

	mu    sync.Mutex
	stats sources.Stats
}

// openSQL builds a SQL adapter from a spec (scheme "sql").
func openSQL(spec Spec) (sources.Source, error) {
	rest := strings.TrimPrefix(spec.Backend, "sql://")
	driver, dsn, ok := strings.Cut(rest, "/")
	if !ok || driver == "" || dsn == "" {
		return nil, fmt.Errorf("adapter: source %s: sql backend %q must be sql://driver/dsn", spec.Name, spec.Backend)
	}
	ps, err := spec.patterns()
	if err != nil {
		return nil, err
	}
	if spec.Table == "" {
		return nil, fmt.Errorf("adapter: source %s: sql backend needs a table", spec.Name)
	}
	if len(spec.Columns) != spec.Arity {
		return nil, fmt.Errorf("adapter: source %s: %d columns for arity %d", spec.Name, len(spec.Columns), spec.Arity)
	}
	for _, ident := range append([]string{spec.Table}, spec.Columns...) {
		if !validIdent(ident) {
			return nil, fmt.Errorf("adapter: source %s: %q is not a plain SQL identifier", spec.Name, ident)
		}
	}
	db, err := sql.Open(driver, dsn)
	if err != nil {
		return nil, fmt.Errorf("adapter: source %s: opening %s: %w", spec.Name, spec.Backend, err)
	}
	a := &SQL{
		name:     spec.Name,
		arity:    spec.Arity,
		patterns: ps,
		table:    spec.Table,
		cols:     append([]string(nil), spec.Columns...),
		maxBatch: spec.maxBatch(),
		db:       db,
	}
	return a, nil
}

// validIdent accepts exactly the unquoted-identifier charset, which is
// the only thing ever interpolated into generated SQL (values always
// travel as placeholders).
func validIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// Name implements Source.
func (a *SQL) Name() string { return a.name }

// Arity implements Source.
func (a *SQL) Arity() int { return a.arity }

// Patterns implements Source.
func (a *SQL) Patterns() []access.Pattern {
	return append([]access.Pattern(nil), a.patterns...)
}

// DB exposes the underlying pool (for tests and shutdown).
func (a *SQL) DB() *sql.DB { return a.db }

// Close releases the connection pool.
func (a *SQL) Close() error { return a.db.Close() }

// Batches implements Source: a binding group is one statement.
func (a *SQL) Batches() bool { return true }

// where compiles a chunk of input vectors over the input columns into
// a WHERE clause and its arguments: an equality (or conjunction) for
// one vector, IN (...) for several single-input vectors, an OR of
// parenthesized conjunctions otherwise.
func where(inCols []string, chunk [][]string) (string, []any) {
	var sb strings.Builder
	args := make([]any, 0, len(chunk)*len(inCols))
	if len(inCols) == 1 && len(chunk) > 1 {
		sb.WriteString(inCols[0] + " IN (")
		for k, in := range chunk {
			if k > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("?")
			args = append(args, in[0])
		}
		sb.WriteString(")")
		return sb.String(), args
	}
	for k, in := range chunk {
		if k > 0 {
			sb.WriteString(" OR ")
		}
		if len(chunk) > 1 {
			sb.WriteString("(")
		}
		for c, col := range inCols {
			if c > 0 {
				sb.WriteString(" AND ")
			}
			sb.WriteString(col + " = ?")
			args = append(args, in[c])
		}
		if len(chunk) > 1 {
			sb.WriteString(")")
		}
	}
	return sb.String(), args
}

// Call implements Source: the whole binding group in ceil(n/MaxBatch)
// round trips, results demultiplexed back per vector by their
// input-column values.
func (a *SQL) Call(ctx context.Context, p access.Pattern, inputs [][]string) ([][]sources.Tuple, error) {
	if err := sources.CheckGroup(a.name, a.patterns, p, inputs); err != nil {
		return nil, err
	}
	out := make([][]sources.Tuple, len(inputs))
	if len(inputs) == 0 {
		return out, nil
	}
	sel := fmt.Sprintf("SELECT %s FROM %s", strings.Join(a.cols, ", "), a.table)
	// Input slot j of the pattern is relation position inPos[j].
	var inPos []int
	var inCols []string
	for j := 0; j < p.Arity(); j++ {
		if p.Input(j) {
			inPos = append(inPos, j)
			inCols = append(inCols, a.cols[j])
		}
	}
	if len(inPos) == 0 {
		// All-output: one SELECT answers every vector identically.
		start := time.Now()
		rows, err := a.query(ctx, sel, nil)
		a.meter(len(inputs), len(rows)*len(inputs), time.Since(start))
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i] = rows // shared read-only, per the Source contract
		}
		return out, nil
	}
	keyParts := make([]string, len(inPos))
	for lo := 0; lo < len(inputs); lo += a.maxBatch {
		hi := min(lo+a.maxBatch, len(inputs))
		chunk := inputs[lo:hi]
		cond, args := where(inCols, chunk)
		start := time.Now()
		rows, err := a.query(ctx, sel+" WHERE "+cond, args)
		if err != nil {
			a.meter(len(chunk), 0, time.Since(start))
			return nil, err
		}
		a.meter(len(chunk), demux(out[lo:hi], chunk, rows, inPos, keyParts), time.Since(start))
	}
	return out, nil
}

// demux hands each vector of chunk its rows, in statement order, as a
// capacity-clipped window of one array: a vector's first occurrence
// owns a window and its duplicates share it. It returns the tuples
// delivered, a duplicate's counted again. keyParts is scratch of one
// entry per input position.
func demux(out [][]sources.Tuple, chunk [][]string, rows []sources.Tuple, inPos []int, keyParts []string) int {
	// owner[k] is the first vector of chunk equal to vector k.
	first := make(map[string]int32, len(chunk))
	owner := make([]int32, len(chunk))
	for k, in := range chunk {
		key := sources.Key(in)
		o, ok := first[key]
		if !ok {
			o = int32(k)
			first[key] = o
		}
		owner[k] = o
	}
	// of[r] is the owner of row r (-1: no vector asked for it), n[o] the
	// rows o owns and at[o] its fill cursor, which ends as its window's
	// end.
	of := make([]int32, len(rows))
	counts := make([]int, 2*len(chunk))
	n, at := counts[:len(chunk)], counts[len(chunk):]
	placed := 0
	for r, row := range rows {
		for c, pos := range inPos {
			keyParts[c] = row[pos]
		}
		o, ok := first[sources.Key(keyParts)]
		if !ok {
			of[r] = -1
			continue
		}
		of[r] = o
		n[o]++
		placed++
	}
	all := make([]sources.Tuple, placed)
	for o, next := 0, 0; o < len(n); o++ {
		at[o] = next
		next += n[o]
	}
	for r, o := range of {
		if o >= 0 {
			all[at[o]] = rows[r]
			at[o]++
		}
	}
	tuples := 0
	for k, o := range owner {
		if c := n[o]; c > 0 {
			out[k] = all[at[o]-c : at[o] : at[o]]
			tuples += c
		}
	}
	return tuples
}

// query runs one SELECT and scans its rows into one flat array, each
// tuple a capacity-clipped window of it. Driver and connection failures
// are transient (the backend may come back); context errors pass
// through untouched so the engine's timeout and cancellation
// classification work exactly as for in-memory sources.
func (a *SQL) query(ctx context.Context, q string, args []any) ([]sources.Tuple, error) {
	rs, err := a.db.QueryContext(ctx, q, args...)
	if err != nil {
		return nil, a.wireErr(err)
	}
	defer rs.Close()
	var flat []string
	rows := 0
	vals := make([]sql.NullString, a.arity)
	ptrs := make([]any, a.arity)
	for i := range vals {
		ptrs[i] = &vals[i]
	}
	for rs.Next() {
		if err := rs.Scan(ptrs...); err != nil {
			return nil, a.wireErr(err)
		}
		for i := range vals {
			flat = append(flat, vals[i].String)
		}
		rows++
	}
	if err := rs.Err(); err != nil {
		return nil, a.wireErr(err)
	}
	out := make([]sources.Tuple, rows)
	for i := range out {
		out[i] = flat[i*a.arity : (i+1)*a.arity : (i+1)*a.arity]
	}
	return out, nil
}

func (a *SQL) wireErr(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return sources.Transient(fmt.Errorf("adapter: sql %s: %w", a.name, err))
}

// meter folds one round trip into the traffic counters: calls is the
// logical calls it serviced, tuples the tuples delivered to callers.
func (a *SQL) meter(calls, tuples int, el time.Duration) {
	a.mu.Lock()
	a.stats.Calls += calls
	a.stats.TuplesReturned += tuples
	a.stats.RoundTrips++
	if calls > 1 {
		a.stats.BatchedCalls += calls
	}
	a.stats.Observe(el)
	a.mu.Unlock()
}

// StatsSnapshot implements StatsReporter.
func (a *SQL) StatsSnapshot() sources.Stats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}

// ResetStats implements StatsReporter.
func (a *SQL) ResetStats() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.stats = sources.Stats{}
}
