package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"intensional/internal/infer"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/synth"
)

// This file holds the correctness oracles. Each answers from the
// benchmark's model alone: rules are evaluated interval by interval
// over the model's rows, and displacement ranges are compared with
// synth.Table1, the published ranges the generator draws from.

// clauseHolds reports whether v lies in the closed clause interval.
func clauseHolds(c rules.Clause, v cell) bool {
	lo, hi := fromValue(c.Lo), fromValue(c.Hi)
	a, ok := compareCells(v, lo)
	if !ok || a < 0 {
		return false
	}
	b, ok := compareCells(v, hi)
	return ok && b <= 0
}

// ruleOracle checks that rules hold on every current row: the model's
// rows plus a workload's extra rows. Verdicts on the model's rows are
// memoised by rule text, since those rows never change.
type ruleOracle struct {
	mu    sync.Mutex // serialises check: the memo and the model's sort caches fill lazily
	m     *model
	extra map[string][][]cell // by upper-case table name
	memo  map[string]error
}

func newRuleOracle(m *model) *ruleOracle {
	return &ruleOracle{m: m, extra: map[string][][]cell{}, memo: map[string]error{}}
}

// setExtra replaces the extra rows of a table.
func (o *ruleOracle) setExtra(table string, rows [][]cell) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.extra[strings.ToUpper(table)] = rows
}

// check reports whether r holds on every current row and, for
// displacement→type rules, whether its displacement range lies within
// the type's Table 1 range.
func (o *ruleOracle) check(r *rules.Rule) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := table1Rule(r); err != nil {
		return err
	}
	if len(r.LHS) == 0 {
		return fmt.Errorf("rule R%d has no premise", r.ID)
	}
	rel := r.RHS.Attr.Relation
	for _, c := range r.LHS {
		if !strings.EqualFold(c.Attr.Relation, rel) {
			return fmt.Errorf("rule R%d spans relations (%s); the oracle checks single-relation rules only", r.ID, r)
		}
	}
	t := o.m.table(rel)
	if t == nil {
		return fmt.Errorf("rule R%d is on unknown relation %s", r.ID, rel)
	}
	lhs := make([]int, len(r.LHS))
	for i, c := range r.LHS {
		if lhs[i] = t.col(c.Attr.Attribute); lhs[i] < 0 {
			return fmt.Errorf("rule R%d: no column %s", r.ID, c.Attr)
		}
	}
	rhs := t.col(r.RHS.Attr.Attribute)
	if rhs < 0 {
		return fmt.Errorf("rule R%d: no column %s", r.ID, r.RHS.Attr)
	}
	holdsOn := func(row []cell) error {
		for i, c := range r.LHS {
			if !clauseHolds(c, row[lhs[i]]) {
				return nil
			}
		}
		if !clauseHolds(r.RHS, row[rhs]) {
			return fmt.Errorf("rule R%d (%s) is contradicted by row %s", r.ID, r, rowKey(row))
		}
		return nil
	}
	text := r.String()
	err, seen := o.memo[text]
	if !seen {
		// Rows whose first premise attribute lies in the first clause's
		// interval form a contiguous run of the column's sort order.
		order := t.sortedBy(lhs[0])
		first := r.LHS[0]
		lo := fromValue(first.Lo)
		start := sort.Search(len(order), func(k int) bool { return !cellLess(t.rows[order[k]][lhs[0]], lo) })
		for k := start; k < len(order) && err == nil; k++ {
			row := t.rows[order[k]]
			if !clauseHolds(first, row[lhs[0]]) {
				break
			}
			err = holdsOn(row)
		}
		o.memo[text] = err
	}
	if err != nil {
		return err
	}
	for _, row := range o.extra[strings.ToUpper(rel)] {
		if err := holdsOn(row); err != nil {
			return err
		}
	}
	return nil
}

// checkAll checks every rule of a set.
func (o *ruleOracle) checkAll(set *rules.Set) error {
	for _, r := range set.Rules() {
		if err := o.check(r); err != nil {
			return err
		}
	}
	return nil
}

// table1Range returns the Table 1 displacement range of a ship type.
func table1Range(typ string) (lo, hi int64, ok bool) {
	for _, st := range synth.Table1 {
		if st.Type == typ {
			return st.MinDisp, st.MaxDisp, true
		}
	}
	return 0, 0, false
}

func isDisplacement(a rules.AttrRef) bool {
	return strings.EqualFold(a.Relation, synth.FleetClass) && strings.EqualFold(a.Attribute, "Displacement")
}

func isType(a rules.AttrRef) bool {
	return strings.EqualFold(a.Relation, synth.FleetClass) && strings.EqualFold(a.Attribute, "Type")
}

// within checks [lo, hi] ⊆ the type's Table 1 range.
func within(typ string, lo, hi cell) error {
	tlo, thi, ok := table1Range(typ)
	if !ok {
		return fmt.Errorf("type %q is not in Table 1", typ)
	}
	if lo.k != 'i' && lo.k != 'f' || hi.k != 'i' && hi.k != 'f' {
		return fmt.Errorf("displacement range for %s is not numeric", typ)
	}
	if lo.num() < float64(tlo) || hi.num() > float64(thi) {
		return fmt.Errorf("displacement range [%v, %v] for %s leaves Table 1's [%d, %d]", lo.num(), hi.num(), typ, tlo, thi)
	}
	return nil
}

// table1Rule checks a rule of the shape "lo <= CLASS.Displacement <= hi
// then CLASS.Type = T" against Table 1; other rules pass.
func table1Rule(r *rules.Rule) error {
	if !isType(r.RHS.Attr) || !r.RHS.IsPoint() {
		return nil
	}
	for _, c := range r.LHS {
		if isDisplacement(c.Attr) {
			if err := within(r.RHS.Lo.Str(), fromValue(c.Lo), fromValue(c.Hi)); err != nil {
				return fmt.Errorf("rule R%d: %w", r.ID, err)
			}
		}
	}
	return nil
}

// parseClause reads a rendered clause: "lo <= A <= hi" or "A = v".
// Values that parse as integers become ints, the rest strings.
func parseClause(s string) (attr string, lo, hi cell, ok bool) {
	val := func(x string) cell {
		if i, err := strconv.ParseInt(x, 10, 64); err == nil {
			return intCell(i)
		}
		if f, err := strconv.ParseFloat(x, 64); err == nil {
			return cell{k: 'f', f: f}
		}
		return strCell(x)
	}
	if parts := strings.Split(s, " <= "); len(parts) == 3 {
		return parts[1], val(parts[0]), val(parts[2]), true
	}
	if parts := strings.SplitN(s, " = ", 2); len(parts) == 2 {
		v := val(parts[1])
		return parts[0], v, v, true
	}
	return "", cell{}, cell{}, false
}

// queryWire is the part of the /query response the oracles read.
type queryWire struct {
	Version     uint64 `json:"version"`
	RowCount    int    `json:"rowCount"`
	Extensional *struct {
		Rows [][]any `json:"rows"`
	} `json:"extensional"`
	Intensional []string `json:"intensional"`
	Facts       []struct {
		Attr     string `json:"attr"`
		Interval string `json:"interval"`
		Derived  bool   `json:"derived"`
		Via      []int  `json:"via"`
	} `json:"facts"`
	Descriptions []struct {
		Clause      string `json:"clause"`
		Consequence string `json:"consequence"`
		Via         int    `json:"via"`
	} `json:"descriptions"`
	Empty bool `json:"empty"`
}

func decodeQuery(body []byte) (*queryWire, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var q queryWire
	if err := dec.Decode(&q); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	return &q, nil
}

func fromJSON(v any) cell {
	switch x := v.(type) {
	case string:
		return strCell(x)
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return intCell(i)
		}
		f, _ := x.Float64() //ilint:allow errdrop — a malformed number compares unequal below
		return cell{k: 'f', f: f}
	}
	return cell{k: 'n'}
}

// answerParts is what the oracles read from one answer, whether it
// arrived as a JSON response or as the program's own values.
type answerParts struct {
	rowCount int
	rows     [][]cell // nil when the mode returns no rows
	cited    []int    // rule numbers the intensional answer cites
	ranges   []typeRange
	// answered reports whether inference said something beyond
	// restating the query: an empty-answer proof, a description, or a
	// derived fact.
	answered bool
}

// typeRange is a displacement range an answer cites for a ship type.
type typeRange struct {
	typ    string
	lo, hi cell
	what   string
}

func partsFromWire(q *queryWire) answerParts {
	p := answerParts{rowCount: q.RowCount, answered: q.Empty || len(q.Descriptions) > 0}
	if q.Extensional != nil {
		p.rows = make([][]cell, len(q.Extensional.Rows))
		for i, r := range q.Extensional.Rows {
			p.rows[i] = make([]cell, len(r))
			for j, v := range r {
				p.rows[i][j] = fromJSON(v)
			}
		}
	}
	for _, f := range q.Facts {
		p.cited = append(p.cited, f.Via...)
		p.answered = p.answered || f.Derived
	}
	for _, d := range q.Descriptions {
		p.cited = append(p.cited, d.Via)
		cattr, clo, chi, ok1 := parseClause(d.Clause)
		tattr, tv, _, ok2 := parseClause(d.Consequence)
		if ok1 && ok2 && strings.EqualFold(cattr, "CLASS.Displacement") && strings.EqualFold(tattr, "CLASS.Type") {
			p.ranges = append(p.ranges, typeRange{typ: tv.s, lo: clo, hi: chi, what: d.Clause})
		}
	}
	return p
}

// partsFromProgram reads an answer from the program's values.
func partsFromProgram(ext *relation.Relation, res *infer.Result) answerParts {
	p := answerParts{rowCount: ext.Len(), answered: res.Empty || len(res.Descriptions) > 0}
	p.rows = make([][]cell, ext.Len())
	for i, tup := range ext.Rows() {
		p.rows[i] = make([]cell, len(tup))
		for j, v := range tup {
			p.rows[i][j] = fromValue(v)
		}
	}
	for _, f := range res.Facts {
		p.cited = append(p.cited, f.Via...)
		p.answered = p.answered || f.Derived
	}
	for _, d := range res.Descriptions {
		p.cited = append(p.cited, d.Via)
		if isDisplacement(d.Clause.Attr) && isType(d.Consequence.Attr) && d.Consequence.IsPoint() {
			p.ranges = append(p.ranges, typeRange{typ: d.Consequence.Lo.Str(),
				lo: fromValue(d.Clause.Lo), hi: fromValue(d.Clause.Hi), what: d.Clause.String()})
		}
	}
	return p
}

// verifyAnswer checks one answer: the extensional rows (when present)
// against the brute-force rows, every rule the intensional answer cites
// against the serving set and the current rows, and every displacement
// range cited for a type against Table 1.
func verifyAnswer(p answerParts, want [][]cell, served map[int]*rules.Rule, o *ruleOracle) error {
	if p.rowCount != len(want) {
		return fmt.Errorf("rowCount %d, brute force finds %d", p.rowCount, len(want))
	}
	if p.rows != nil {
		if err := sameRows(p.rows, want); err != nil {
			return fmt.Errorf("extensional rows differ from brute force: %w", err)
		}
	}
	for _, r := range p.ranges {
		if err := within(r.typ, r.lo, r.hi); err != nil {
			return fmt.Errorf("description %q: %w", r.what, err)
		}
	}
	for _, id := range p.cited {
		r, ok := served[id]
		if !ok {
			return fmt.Errorf("answer cites R%d, which the system does not serve", id)
		}
		if err := o.check(r); err != nil {
			return fmt.Errorf("answer cites a rule that does not hold: %w", err)
		}
	}
	return nil
}

// servedByID indexes a serving rule set by rule number.
func servedByID(set *rules.Set) map[int]*rules.Rule {
	m := make(map[int]*rules.Rule, set.Len())
	for _, r := range set.Rules() {
		m[r.ID] = r
	}
	return m
}
