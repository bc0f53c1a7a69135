package main

import (
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"intensional/internal/answer"
	"intensional/internal/core"
	"intensional/internal/dict"
	"intensional/internal/query"
	"intensional/internal/rules"
	"intensional/internal/server"
	"intensional/internal/sqlparse"
	"intensional/internal/wal"
)

// writeOp is one generated mutation and the point read that checks it.
type writeOp struct {
	kind     string // insert, contradict, update, delete
	sql      string
	id       string // ship the read looks up
	typ      string // that ship's type, the read's restriction
	row      []cell // the ship's new image; nil after a delete
	ins, del int    // rows the mutation must report
}

// writeGen draws write_ryw's mutations. The cycle index fixes the kind
// (a sixteen-cycle round of thirteen plain inserts, one contradicting
// insert, one update and one delete), so every seed runs the same mix;
// the seed picks classes, rules and victims. It also keeps the
// benchmark's model of the ships it has written. Plain inserts without
// a checkpoint are about three quarters of the cycles, so the medians
// lie well inside that one class of operation, not on its edge, where
// a small shift in the mix would move them.
type writeGen struct {
	rng     *rand.Rand
	n       int
	classes []string          // CLASS.Class values
	typeOf  map[string]string // class → type
	live    []string          // plain inserted ships still present, in order
	rows    map[string][]cell // current image of every written ship by Id
	order   []string          // written Ids in first-write order
}

func newWriteGen(seed int64, m *model) *writeGen {
	g := &writeGen{rng: rand.New(rand.NewSource(seed)), typeOf: map[string]string{}, rows: map[string][]cell{}}
	cls := m.table("CLASS")
	for _, r := range cls.rows {
		c := r[cls.col("Class")].s
		g.classes = append(g.classes, c)
		g.typeOf[c] = r[cls.col("Type")].s
	}
	sort.Strings(g.classes)
	return g
}

var writeRound = []string{
	"insert", "insert", "insert", "contradict", "insert", "insert", "insert", "insert",
	"insert", "insert", "update", "insert", "insert", "insert", "delete", "insert",
}

// next draws the next mutation against the rules served now.
func (g *writeGen) next(served *rules.Set) (writeOp, error) {
	n := g.n
	g.n++
	kind := writeRound[n%len(writeRound)]
	switch kind {
	case "insert":
		// Ids after every generated Id ("ZX…") and lower-case names lie
		// outside every induced range, so plain inserts contradict
		// nothing.
		class := g.classes[g.rng.Intn(len(g.classes))]
		id := fmt.Sprintf("ZX%06d", n)
		row := []cell{strCell(id), strCell(fmt.Sprintf("zz new ship %d", n)), strCell(class)}
		return writeOp{kind: kind, id: id, typ: g.typeOf[class], row: row, ins: 1,
			sql: fmt.Sprintf("INSERT INTO SHIP VALUES (%s, %s, %s)", literal(row[0]), literal(row[1]), literal(row[2]))}, nil
	case "contradict":
		// A ship whose Id lies inside a served Id → Class rule's range
		// but whose class differs: maintenance must stop serving it.
		var cands []*rules.Rule
		for _, r := range served.Rules() {
			if len(r.LHS) != 1 || !strings.EqualFold(r.LHS[0].Attr.String(), "SHIP.Id") || !strings.EqualFold(r.RHS.Attr.String(), "SHIP.Class") {
				continue
			}
			lo, hi := r.LHS[0].Lo.Str(), r.LHS[0].Hi.Str()
			if lo < hi && !strings.HasPrefix(hi, lo) {
				cands = append(cands, r)
			}
		}
		if len(cands) == 0 {
			return writeOp{}, fmt.Errorf("no served Id → Class rule left to contradict")
		}
		sort.Slice(cands, func(a, b int) bool { return cands[a].ID < cands[b].ID })
		r := cands[g.rng.Intn(len(cands))]
		class := g.classes[g.rng.Intn(len(g.classes))]
		for class == r.RHS.Lo.Str() {
			class = g.classes[g.rng.Intn(len(g.classes))]
		}
		id := r.LHS[0].Lo.Str() + "x" + strconv.Itoa(n)
		row := []cell{strCell(id), strCell(fmt.Sprintf("zz contradiction %d", n)), strCell(class)}
		return writeOp{kind: kind, id: id, typ: g.typeOf[class], row: row, ins: 1,
			sql: fmt.Sprintf("INSERT INTO SHIP VALUES (%s, %s, %s)", literal(row[0]), literal(row[1]), literal(row[2]))}, nil
	case "update":
		id := g.live[g.rng.Intn(len(g.live))]
		old := g.rows[id]
		row := []cell{old[0], strCell(fmt.Sprintf("zz renamed %d", n)), old[2]}
		return writeOp{kind: kind, id: id, typ: g.typeOf[old[2].s], row: row, ins: 1, del: 1,
			sql: fmt.Sprintf("UPDATE SHIP SET Name = %s WHERE Id = %s", literal(row[1]), literal(row[0]))}, nil
	default: // delete
		id := g.live[g.rng.Intn(len(g.live))]
		return writeOp{kind: kind, id: id, typ: g.typeOf[g.rows[id][2].s], del: 1,
			sql: fmt.Sprintf("DELETE FROM SHIP WHERE Id = %s", literal(strCell(id)))}, nil
	}
}

// commit records an acknowledged mutation in the model.
func (g *writeGen) commit(op writeOp) {
	if _, seen := g.rows[op.id]; !seen {
		g.order = append(g.order, op.id)
	}
	switch op.kind {
	case "insert":
		g.live = append(g.live, op.id)
		g.rows[op.id] = op.row
	case "contradict", "update":
		g.rows[op.id] = op.row
	case "delete":
		for i, id := range g.live {
			if id == op.id {
				g.live = append(g.live[:i], g.live[i+1:]...)
				break
			}
		}
		g.rows[op.id] = nil
	}
}

// extraShips lists the written ships' current rows in write order.
func (g *writeGen) extraShips() [][]cell {
	var out [][]cell
	for _, id := range g.order {
		if r := g.rows[id]; r != nil {
			out = append(out, r)
		}
	}
	return out
}

// expectRead answers coldStatement(op.id, op.typ) by brute force over
// the written ships joined to CLASS.
func (g *writeGen) expectRead(m *model, id, typ string) [][]cell {
	row := g.rows[id]
	if row == nil {
		return nil
	}
	cls := m.table("CLASS")
	var out [][]cell
	for _, c := range cls.rows {
		if c[cls.col("Class")] == row[2] && c[cls.col("Type")].s == typ {
			out = append(out, []cell{row[0], row[1], row[2], c[cls.col("Type")]})
		}
	}
	return out
}

// mutateWire is the part of the /mutate response the checks read.
type mutateWire struct {
	Version   uint64 `json:"version"`
	Mutations []struct {
		Inserted int `json:"inserted"`
		Deleted  int `json:"deleted"`
	} `json:"mutations"`
	Checkpointed bool   `json:"checkpointed"`
	WalSeq       uint64 `json:"walSeq"`
	Token        string `json:"token"`
	Warning      string `json:"warning"`
}

func checkMutate(code int, body []byte, op writeOp, seq uint64) (*mutateWire, error) {
	if code != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %.200s", op.kind, code, body)
	}
	var r mutateWire
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("%s: decode: %w", op.kind, err)
	}
	switch {
	case len(r.Mutations) != 1:
		return nil, fmt.Errorf("%s: %d mutations reported", op.kind, len(r.Mutations))
	case r.Mutations[0].Inserted != op.ins || r.Mutations[0].Deleted != op.del:
		return nil, fmt.Errorf("%s: inserted %d deleted %d, want %d and %d", op.kind, r.Mutations[0].Inserted, r.Mutations[0].Deleted, op.ins, op.del)
	case r.WalSeq != seq || r.Token != "w"+strconv.FormatUint(seq, 10):
		return nil, fmt.Errorf("%s: walSeq %d token %q, want %d", op.kind, r.WalSeq, r.Token, seq)
	case r.Warning != "":
		return nil, fmt.Errorf("%s: %s", op.kind, r.Warning)
	}
	return &r, nil
}

// walPayload is the record ApplyBatch logs for a batch.
func walPayload(seq uint64, stmts []string) []byte {
	b, err := json.Marshal(struct {
		Seq   uint64   `json:"seq"`
		Stmts []string `json:"stmts"`
	}{seq, stmts})
	if err != nil {
		panic(err) // strings always encode
	}
	return b
}

// runWriteRYW drives write_ryw: one client commits a one-statement
// batch through /mutate, then reads it back with the returned token.
func runWriteRYW(e *env, db *fleetDB, m *model) (*outcome, error) {
	sys := db.sys
	g := newWriteGen(e.seed, m)
	o := newRuleOracle(m)
	if err := o.checkAll(sys.Rules()); err != nil {
		return nil, fmt.Errorf("served rules before the run: %w", err)
	}
	expect := pointJoin(m)
	ship := m.table("SHIP")
	warmOrder := rand.New(rand.NewSource(e.seed)).Perm(len(ship.rows))
	h := server.New(sys, server.Options{}).Handler()
	var probeLog *wal.Log
	if e.tr != nil {
		var err error
		// The probe log sits beside the system's own log.
		if probeLog, _, err = wal.Open(filepath.Join(filepath.Dir(db.dir), "probe.wal")); err != nil {
			return nil, err
		}
		defer probeLog.Close() //ilint:allow errdrop — the probe log is scratch
	}

	out := &outcome{metrics: metricSet{}}
	var lat []float64
	checkpoints := 0
	var w respWriter
	seq := sys.WalSeq()
	deadline := time.Now().Add(e.window)
	met := startMeter()
	for op := int64(0); time.Now().Before(deadline); op++ {
		wop, err := g.next(sys.Rules())
		if err != nil {
			return nil, err
		}
		readSQL := coldStatement(wop.id, wop.typ).sql()
		if e.tr != nil {
			if err := reconstructWrite(e, sys, wop.sql, seq+1, probeLog, op); err != nil {
				return nil, fmt.Errorf("write probe: %w", err)
			}
			d, ckpt, err := tracedCycle(e, sys, wop, readSQL, op)
			if err == nil {
				g.commit(wop)
				seq++
				o.setExtra("SHIP", g.extraShips())
				err = verifyAnswer(d.parts, g.expectRead(m, wop.id, wop.typ), servedByID(sys.Rules()), o)
			}
			if err == nil {
				// The cliff's reference: a new statement of the same shape
				// on the now unchanged snapshot.
				row := ship.rows[warmOrder[int(op)%len(warmOrder)]]
				id := row[ship.col("Id")].s
				typ := g.typeOf[row[ship.col("Class")].s]
				sp := e.tr.begin("core.warm_query", -1, op)
				resp, qerr := sys.QueryContext(e.ctx, coldStatement(id, typ).sql(), answer.Combined)
				e.tr.end(sp)
				if err = qerr; err == nil {
					err = verifyAnswer(partsFromProgram(resp.Extensional, resp.Inference),
						expectPoint(expect[id], typ), servedByID(sys.Rules()), o)
				}
			}
			if ckpt {
				checkpoints++
			}
			out.record(err)
			if err == nil {
				lat = append(lat, d.total)
			}
			continue
		}
		start := time.Now()
		code, body, err := serve(h, &w, "/mutate", mutateBody(wop.sql))
		var mr *mutateWire
		if err == nil {
			mr, err = checkMutate(code, body, wop, seq+1)
		}
		if err != nil {
			out.record(err)
			continue
		}
		g.commit(wop)
		seq++
		o.setExtra("SHIP", g.extraShips())
		if mr.Checkpointed {
			checkpoints++
		}
		code, body, err = serve(h, &w, "/query", queryBody(readSQL, "combined", mr.Token))
		done := time.Now()
		if err == nil {
			served := &servedSet{rules: servedByID(sys.Rules())}
			if _, err = checkResponse(code, body, "combined", g.expectRead(m, wop.id, wop.typ), served, o); err != nil {
				err = fmt.Errorf("read after %s: %w", wop.kind, err)
			}
		}
		out.record(err)
		if err == nil {
			lat = append(lat, ms(done.Sub(start)))
		}
	}
	met.finish()
	if len(lat) == 0 {
		return nil, fmt.Errorf("no operation succeeded")
	}
	if checkpoints == 0 {
		return nil, fmt.Errorf("no checkpoint ran during the window")
	}
	staleCount, _ := ruleStale(sys)
	ok, err := checkDurable(e, db, m, g, o)
	if err != nil {
		return nil, err
	}
	out.correct = ok
	log.Printf("write_ryw: %d cycles, %d checkpoints, %d stale rules", len(lat), checkpoints, staleCount)
	if e.tr == nil {
		out.metrics.common(met, len(lat), lat)
		return out, nil
	}
	for _, l := range [][3]string{
		{"sqlparse.parse_us", "sqlparse.parse", "us"},
		{"query.apply_ms", "query.apply", "ms"},
		{"dict.rebuild_ms", "dict.rebuild", "ms"},
		{"maintain.apply_us", "maintain.apply", "us"},
		{"wal.append_ms", "wal.append", "ms"},
		{"core.apply_ms", "core.apply", "ms"},
		{"core.first_query_ms", "core.first_query", "ms"},
		{"core.warm_query_ms", "core.warm_query", "ms"},
	} {
		if err := e.tr.layer(out.metrics, l[0], l[1], l[2]); err != nil {
			return nil, err
		}
	}
	if err := e.tr.layer(out.metrics, "core.apply_checkpoint_ms", "core.apply_checkpoint", "ms"); err != nil {
		return nil, err
	}
	out.metrics.put("wal.bytes_per_batch", mean(e.tr.samples("wal.bytes")), "B")
	out.metrics.put("maintain.stale_rules", float64(staleCount), "count")
	out.metrics.traced(lat)
	return out, nil
}

func mutateBody(sql string) []byte {
	b, err := json.Marshal(struct {
		SQL string `json:"sql"`
	}{sql})
	if err != nil {
		panic(err) // strings always encode
	}
	return b
}

func ruleStale(sys *core.System) (stale, refinable int) {
	_, st, _ := sys.RuleStatus()
	return st.Counts()
}

// cycleResult is one traced write cycle's timing and read answer.
type cycleResult struct {
	total float64 // ms: ApplyBatch plus the first query
	parts answerParts
}

// tracedCycle runs one write cycle straight into core — ApplyBatch,
// then the first QueryContext on the new snapshot — so each is timed.
func tracedCycle(e *env, sys *core.System, wop writeOp, readSQL string, op int64) (cycleResult, bool, error) {
	sp := e.tr.begin("core.apply", -1, op)
	res, err := sys.ApplyBatch(e.ctx, []string{wop.sql})
	d := e.tr.end(sp)
	if err != nil {
		return cycleResult{}, false, err
	}
	if res.Checkpointed {
		e.tr.addDuration("core.apply_checkpoint", d)
	}
	if len(res.Mutations) != 1 || res.Mutations[0].Count() == 0 {
		return cycleResult{}, res.Checkpointed, fmt.Errorf("%s: mutation had no effect", wop.kind)
	}
	sp = e.tr.begin("core.first_query", -1, op)
	resp, err := sys.QueryContext(e.ctx, readSQL, answer.Combined)
	d2 := e.tr.end(sp)
	if err != nil {
		return cycleResult{}, res.Checkpointed, err
	}
	return cycleResult{total: ms(d + d2), parts: partsFromProgram(resp.Extensional, resp.Inference)}, res.Checkpointed, nil
}

// reconstructWrite repeats ApplyBatch's stages one public call at a
// time on a private copy — parse, apply on a shallow catalog clone,
// rule maintenance, dictionary rebuild, and a WAL append of the same
// payload to the probe log — so each can be timed. Nothing it builds is
// installed.
func reconstructWrite(e *env, sys *core.System, sql string, seq uint64, probe *wal.Log, op int64) error {
	root := e.tr.begin("recon.apply", -1, op)
	defer e.tr.end(root)
	sp := e.tr.begin("sqlparse.parse", root.idx, op)
	st, err := sqlparse.ParseStatement(sql)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	d := sys.Dictionary()
	sp = e.tr.begin("query.apply", root.idx, op)
	cat := sys.Catalog().ShallowClone()
	mut, err := query.ApplyMutation(cat, st)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	full, state, _ := sys.RuleStatus()
	sp = e.tr.begin("maintain.apply", root.idx, op)
	state.ApplyMutation(d, full, mut)
	e.tr.end(sp)
	sp = e.tr.begin("dict.rebuild", root.idx, op)
	nd := dict.New(cat)
	err = nd.Apply(d.Decls())
	e.tr.end(sp)
	if err != nil {
		return err
	}
	before := probe.Size()
	sp = e.tr.begin("wal.append", root.idx, op)
	err = probe.Append(walPayload(seq, []string{sql}))
	e.tr.end(sp)
	if err != nil {
		return err
	}
	e.tr.sample("wal.bytes", float64(probe.Size()-before))
	return nil
}

// checkDurable closes the system, opens it again from disk, and checks
// that every acknowledged batch is present exactly once: the reopened
// catalog must equal the model row for row. The reopened system
// replaces db.sys.
func checkDurable(e *env, db *fleetDB, m *model, g *writeGen, o *ruleOracle) (bool, error) {
	if err := o.checkAll(db.sys.Rules()); err != nil {
		log.Printf("served rules after the run: %v", err)
		return false, nil
	}
	seq, ver := db.sys.WalSeq(), db.sys.Version()
	if err := db.close(); err != nil {
		return false, err
	}
	sys, err := core.OpenDurable(db.dir, durableOptions("write_ryw"))
	if err != nil {
		return false, fmt.Errorf("reopen: %w", err)
	}
	db.sys = sys
	if sys.WalSeq() != seq || sys.Version() != ver {
		log.Printf("reopened at seq %d version %d, acknowledged seq %d version %d", sys.WalSeq(), sys.Version(), seq, ver)
		return false, nil
	}
	for _, name := range []string{"SHIP", "CLASS", "TYPE"} {
		var extra [][]cell
		if name == "SHIP" {
			extra = g.extraShips()
		}
		if err := sameRelation(sys, m, name, extra); err != nil {
			log.Printf("after reopening: %v", err)
			return false, nil
		}
	}
	if err := o.checkAll(sys.Rules()); err != nil {
		log.Printf("reopened system serves a rule that does not hold: %v", err)
		return false, nil
	}
	return true, nil
}

// sameRelation compares a relation of the system's catalog with the
// model's rows plus extra, as multisets.
func sameRelation(sys *core.System, m *model, name string, extra [][]cell) error {
	r, err := sys.Catalog().Get(name)
	if err != nil {
		return err
	}
	count := map[string]int{}
	for _, row := range append(append([][]cell(nil), m.table(name).rows...), extra...) {
		count[rowKey(row)]++
	}
	for _, tup := range r.Rows() {
		row := make([]cell, len(tup))
		for i, v := range tup {
			row[i] = fromValue(v)
		}
		k := rowKey(row)
		if count[k] == 0 {
			return fmt.Errorf("%s holds row %q the model does not (or holds it twice)", name, k)
		}
		count[k]--
	}
	for k, n := range count {
		if n > 0 {
			return fmt.Errorf("%s lacks row %q", name, k)
		}
	}
	return nil
}
