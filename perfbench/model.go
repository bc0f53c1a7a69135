package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"intensional/internal/relation"
	"intensional/internal/storage"
)

// This file holds the benchmark's own model of the fleet's rows and a
// brute-force evaluator over it. It shares no code with the planner,
// the executor or the inference processor: the oracles built on it
// compare the program's answers against plain nested loops.

// cell is one value of the model. Kinds: 'n' null, 's' string, 'i'
// int, 'f' float.
type cell struct {
	k byte
	s string
	i int64
	f float64
}

func strCell(s string) cell { return cell{k: 's', s: s} }
func intCell(i int64) cell  { return cell{k: 'i', i: i} }

// fromValue converts a program value into a model cell.
func fromValue(v relation.Value) cell {
	switch v.Kind() {
	case relation.KindString:
		return strCell(v.Str())
	case relation.KindInt:
		return intCell(v.Int64())
	case relation.KindFloat:
		return cell{k: 'f', f: v.Float64()}
	}
	return cell{k: 'n'}
}

func (c cell) num() float64 {
	if c.k == 'i' {
		return float64(c.i)
	}
	return c.f
}

// compareCells orders two cells: strings by bytes, numbers by value.
// ok is false when the kinds cannot be compared (a null, or a string
// against a number).
func compareCells(a, b cell) (int, bool) {
	switch {
	case a.k == 's' && b.k == 's':
		return strings.Compare(a.s, b.s), true
	case a.k == 'i' && b.k == 'i':
		switch {
		case a.i < b.i:
			return -1, true
		case a.i > b.i:
			return 1, true
		}
		return 0, true
	case (a.k == 'i' || a.k == 'f') && (b.k == 'i' || b.k == 'f'):
		x, y := a.num(), b.num()
		switch {
		case x < y:
			return -1, true
		case x > y:
			return 1, true
		}
		return 0, true
	}
	return 0, false
}

// key renders a cell for multiset comparison.
func (c cell) key() string {
	switch c.k {
	case 's':
		return "s" + c.s
	case 'i':
		return "i" + strconv.FormatInt(c.i, 10)
	case 'f':
		return "f" + strconv.FormatFloat(c.f, 'g', -1, 64)
	}
	return "n"
}

func rowKey(r []cell) string {
	parts := make([]string, len(r))
	for i, c := range r {
		parts[i] = c.key()
	}
	return strings.Join(parts, "\x1f")
}

// table is one relation of the model.
type table struct {
	name string
	cols []string
	rows [][]cell
	// byCol caches, per column, the row numbers ordered by that
	// column's value (nulls first). Built on first use; rows never
	// change after the model is built.
	byCol map[int][]int32
}

func (t *table) col(name string) int {
	for i, c := range t.cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

func (t *table) sortedBy(ci int) []int32 {
	if o, ok := t.byCol[ci]; ok {
		return o
	}
	o := make([]int32, len(t.rows))
	for i := range o {
		o[i] = int32(i)
	}
	sort.SliceStable(o, func(a, b int) bool { return cellLess(t.rows[o[a]][ci], t.rows[o[b]][ci]) })
	if t.byCol == nil {
		t.byCol = map[int][]int32{}
	}
	t.byCol[ci] = o
	return o
}

// cellLess is a total order for sorting a column: nulls first, then by
// compareCells, incomparable kinds by kind letter.
func cellLess(a, b cell) bool {
	if c, ok := compareCells(a, b); ok {
		return c < 0
	}
	return a.k < b.k
}

// model is the benchmark's copy of the fleet, read once from the
// generator's catalog.
type model struct {
	tables map[string]*table // keyed by upper-case name
}

func newModel(cat *storage.Catalog, names ...string) (*model, error) {
	m := &model{tables: map[string]*table{}}
	for _, name := range names {
		r, err := cat.Get(name)
		if err != nil {
			return nil, err
		}
		t := &table{name: name}
		for _, c := range r.Schema().Columns() {
			t.cols = append(t.cols, c.Name)
		}
		for _, tup := range r.Rows() {
			row := make([]cell, len(tup))
			for i, v := range tup {
				row[i] = fromValue(v)
			}
			t.rows = append(t.rows, row)
		}
		m.tables[strings.ToUpper(name)] = t
	}
	return m, nil
}

func (m *model) table(name string) *table { return m.tables[strings.ToUpper(name)] }

// colRef names a column as Relation.Attribute.
type colRef struct{ t, c string }

func (r colRef) String() string { return r.t + "." + r.c }

// cond is one restriction "col op literal".
type cond struct {
	col colRef
	op  string // =, <, <=, >, >=
	v   cell
}

func (c cond) holds(v cell) bool {
	cmp, ok := compareCells(v, c.v)
	if !ok {
		return false
	}
	switch c.op {
	case "=":
		return cmp == 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	return false
}

// stmt is a conjunctive select-project-join statement in the model's
// own form; sql renders it for the program.
type stmt struct {
	from  []string
	joins [][2]colRef
	conds []cond
	proj  []colRef
}

func literal(c cell) string {
	switch c.k {
	case 's':
		return strconv.Quote(c.s)
	case 'i':
		return strconv.FormatInt(c.i, 10)
	case 'f':
		return strconv.FormatFloat(c.f, 'g', -1, 64)
	}
	return "NULL"
}

func (s stmt) sql() string {
	proj := make([]string, len(s.proj))
	for i, p := range s.proj {
		proj[i] = p.String()
	}
	var where []string
	for _, j := range s.joins {
		where = append(where, j[0].String()+" = "+j[1].String())
	}
	for _, c := range s.conds {
		where = append(where, fmt.Sprintf("%s %s %s", c.col, c.op, literal(c.v)))
	}
	q := "SELECT " + strings.Join(proj, ", ") + " FROM " + strings.Join(s.from, ", ")
	if len(where) > 0 {
		q += " WHERE " + strings.Join(where, " AND ")
	}
	return q
}

// eval answers a statement by brute force: each table's rows filtered
// by its own restrictions, then a nested loop over the survivors
// checking every join predicate. extra supplies rows the model's
// tables do not hold (a workload's own inserts), keyed by table name.
func (m *model) eval(s stmt, extra map[string][][]cell) ([][]cell, error) {
	type bound struct {
		t    *table
		rows [][]cell
	}
	bs := make([]bound, len(s.from))
	pos := map[string]int{}
	for i, name := range s.from {
		t := m.table(name)
		if t == nil {
			return nil, fmt.Errorf("model: no table %s", name)
		}
		bs[i].t = t
		pos[strings.ToUpper(name)] = i
		all := append(append([][]cell(nil), t.rows...), extra[strings.ToUpper(name)]...)
		for _, row := range all {
			keep := true
			for _, c := range s.conds {
				if !strings.EqualFold(c.col.t, name) {
					continue
				}
				ci := t.col(c.col.c)
				if ci < 0 || !c.holds(row[ci]) {
					keep = false
					break
				}
			}
			if keep {
				bs[i].rows = append(bs[i].rows, row)
			}
		}
	}
	locate := func(r colRef) (int, int, error) {
		i, ok := pos[strings.ToUpper(r.t)]
		if !ok {
			return 0, 0, fmt.Errorf("model: %s not in FROM", r)
		}
		ci := bs[i].t.col(r.c)
		if ci < 0 {
			return 0, 0, fmt.Errorf("model: no column %s", r)
		}
		return i, ci, nil
	}
	var out [][]cell
	cur := make([][]cell, len(bs))
	var loop func(d int) error
	loop = func(d int) error {
		if d == len(bs) {
			for _, j := range s.joins {
				li, lc, err := locate(j[0])
				if err != nil {
					return err
				}
				ri, rc, err := locate(j[1])
				if err != nil {
					return err
				}
				if cmp, ok := compareCells(cur[li][lc], cur[ri][rc]); !ok || cmp != 0 {
					return nil
				}
			}
			row := make([]cell, len(s.proj))
			for k, p := range s.proj {
				ti, ci, err := locate(p)
				if err != nil {
					return err
				}
				row[k] = cur[ti][ci]
			}
			out = append(out, row)
			return nil
		}
		for _, r := range bs[d].rows {
			cur[d] = r
			if err := loop(d + 1); err != nil {
				return err
			}
		}
		return nil
	}
	if err := loop(0); err != nil {
		return nil, err
	}
	return out, nil
}

// sameRows reports whether two row lists hold the same multiset.
func sameRows(got, want [][]cell) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	g := make([]string, len(got))
	w := make([]string, len(want))
	for i := range got {
		g[i] = rowKey(got[i])
		w[i] = rowKey(want[i])
	}
	sort.Strings(g)
	sort.Strings(w)
	for i := range g {
		if g[i] != w[i] {
			return fmt.Errorf("row %q not expected (first difference after sorting; want %q)", g[i], w[i])
		}
	}
	return nil
}
