package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"intensional/internal/answer"
	"intensional/internal/core"
	"intensional/internal/infer"
	"intensional/internal/rules"
	"intensional/internal/server"
	"intensional/internal/synth"
)

// respWriter is a reusable in-process http.ResponseWriter: requests go
// straight into server.Handler().ServeHTTP, with no sockets.
type respWriter struct {
	h    http.Header
	code int
	buf  bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.buf.Write(p)
}

// serve posts body to path and returns the status and the response
// bytes, which alias w until its next use.
func serve(h http.Handler, w *respWriter, path string, body []byte) (int, []byte, error) {
	if w.h == nil {
		w.h = http.Header{}
	}
	clear(w.h)
	w.code = 0
	w.buf.Reset()
	req, err := http.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(w, req)
	return w.code, w.buf.Bytes(), nil
}

func queryBody(sql, mode, token string) []byte {
	b, err := json.Marshal(struct {
		SQL   string `json:"sql"`
		Mode  string `json:"mode"`
		Token string `json:"token,omitempty"`
	}{sql, mode, token})
	if err != nil {
		panic(err) // strings always encode
	}
	return b
}

// modeOf maps a /query mode to the core inference direction.
func modeOf(mode string) answer.Mode {
	switch mode {
	case "forward":
		return answer.ForwardOnly
	case "backward":
		return answer.BackwardOnly
	}
	return answer.Combined
}

func wantsRows(mode string) bool { return mode != "intensional" }

// checkResponse verifies one /query response against brute-force rows
// and the rule oracles, and returns what it read.
func checkResponse(code int, body []byte, mode string, want [][]cell, served *servedSet, o *ruleOracle) (answerParts, error) {
	if code != http.StatusOK {
		return answerParts{}, fmt.Errorf("status %d: %.200s", code, body)
	}
	q, err := decodeQuery(body)
	if err != nil {
		return answerParts{}, err
	}
	p := partsFromWire(q)
	if wantsRows(mode) && p.rows == nil {
		return p, fmt.Errorf("mode %s: extensional rows missing", mode)
	}
	return p, verifyAnswer(p, want, served.rules, o)
}

// typeNames lists the Table 1 types in table order.
func typeNames() []string {
	out := make([]string, len(synth.Table1))
	for i, st := range synth.Table1 {
		out[i] = st.Type
	}
	return out
}

var (
	shipIDCol     = colRef{"SHIP", "Id"}
	shipNameCol   = colRef{"SHIP", "Name"}
	shipClassCol  = colRef{"SHIP", "Class"}
	classClassCol = colRef{"CLASS", "Class"}
	classTypeCol  = colRef{"CLASS", "Type"}
	classNameCol  = colRef{"CLASS", "ClassName"}
	classDispCol  = colRef{"CLASS", "Displacement"}
	shipClassJoin = [2]colRef{shipClassCol, classClassCol}
)

// hotModes are the /query modes read_hot draws, in rank order.
var hotModes = []string{"combined", "forward", "backward", "extensional", "intensional"}

// hotStatements draws the read_hot statements: hotPerShape instances of
// each of three shapes modelled on the paper's examples. Statement k
// has shape k%3 on every seed, so the cost profile of the Zipf ranks is
// the same whatever the seed; the seed picks types, classes and ranges.
const hotPerShape = 12

func hotStatements(seed int64, m *model) []stmt {
	rng := rand.New(rand.NewSource(seed))
	types := typeNames()
	cls := m.table("CLASS")
	ti, di := cls.col("Type"), cls.col("Displacement")
	var out []stmt
	for k := 0; k < 3*hotPerShape; k++ {
		switch k % 3 {
		case 0: // Example 2: a type's classes; backward inference describes them.
			t := types[rng.Intn(len(types))]
			out = append(out, stmt{
				from:  []string{"CLASS"},
				conds: []cond{{classTypeCol, "=", strCell(t)}},
				proj:  []colRef{classClassCol, classDispCol},
			})
		case 1: // Example 1: a displacement band spanning three classes of one type.
			t := types[rng.Intn(len(types))]
			var disp []int64
			for _, row := range cls.rows {
				if row[ti].s == t {
					disp = append(disp, row[di].i)
				}
			}
			sort.Slice(disp, func(a, b int) bool { return disp[a] < disp[b] })
			a := rng.Intn(len(disp) - 2)
			out = append(out, stmt{
				from: []string{"CLASS"},
				conds: []cond{
					{classDispCol, ">=", intCell(disp[a])},
					{classDispCol, "<=", intCell(disp[a+2])},
				},
				proj: []colRef{classClassCol, classNameCol, classTypeCol},
			})
		case 2: // Example 3: fifty ships of one class joined to their type.
			// Types 1..8 have five-digit serials, so the Id range holds
			// exactly the fifty ships.
			tix := 1 + rng.Intn(8)
			start := 100 + tix*classesPerType*shipsPerClass + rng.Intn(classesPerType)*shipsPerClass + rng.Intn(shipsPerClass-50)
			t := types[tix]
			out = append(out, stmt{
				from:  []string{"SHIP", "CLASS"},
				joins: [][2]colRef{shipClassJoin},
				conds: []cond{
					{classTypeCol, "=", strCell(t)},
					{shipIDCol, ">=", strCell(t + strconv.Itoa(start))},
					{shipIDCol, "<=", strCell(t + strconv.Itoa(start+49))},
				},
				proj: []colRef{shipIDCol, shipNameCol, classTypeCol},
			})
		}
	}
	return out
}

// Pair k is drawn with probability ∝ (hotZipfV + k)^-hotZipfS: skewed,
// yet flat enough at the head that the median spans many pairs instead
// of resting on whichever statement a seed makes hottest.
const (
	hotZipfS = 1.1
	hotZipfV = 8
)

// hotPair is one statement×mode pair of read_hot.
type hotPair struct {
	sql  string
	mode string
	body []byte
	want [][]cell
	ref  []byte // the verified response; later responses compare to it
}

// servedSet is a serving rule set indexed by rule number.
type servedSet struct {
	rules map[int]*rules.Rule
}

// runReadHot drives read_hot: clients post Zipf-skewed statement×mode
// pairs, nearly all answered from the core response cache.
func runReadHot(e *env, db *fleetDB, m *model) (*outcome, error) {
	sys := db.sys
	o := newRuleOracle(m)
	served := &servedSet{rules: servedByID(sys.Rules())}
	if err := o.checkAll(sys.Rules()); err != nil {
		return nil, fmt.Errorf("served rules before the run: %w", err)
	}
	var pairs []hotPair
	for _, st := range hotStatements(e.seed, m) {
		want, err := m.eval(st, nil)
		if err != nil {
			return nil, err
		}
		for _, mode := range hotModes {
			pairs = append(pairs, hotPair{sql: st.sql(), mode: mode, body: queryBody(st.sql(), mode, ""), want: want})
		}
	}
	// Pair p is statement p/5 in mode p%5; the Zipf rank is the pair
	// index, so the hottest pairs are the first statements' modes.
	h := server.New(sys, server.Options{}).Handler()
	before := sys.PlannerStats()
	var w respWriter
	for i := range pairs {
		p := &pairs[i]
		code, body, err := serve(h, &w, "/query", p.body)
		if err != nil {
			return nil, err
		}
		if _, err := checkResponse(code, body, p.mode, p.want, served, o); err != nil {
			return nil, fmt.Errorf("warm-up %s %q: %w", p.mode, p.sql, err)
		}
		p.ref = append([]byte(nil), body...)
	}

	out := &outcome{metrics: metricSet{}}
	var (
		mu       sync.Mutex
		lat      []float64
		respKB   []float64
		wg       sync.WaitGroup
		deadline = time.Now().Add(e.window)
	)
	met := startMeter()
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(e.seed*1000 + int64(c)))
			z := rand.NewZipf(rng, hotZipfS, hotZipfV, uint64(len(pairs)-1))
			var w respWriter
			var mine, mineKB []float64
			for op := int64(c); time.Now().Before(deadline); op += int64(e.clients) {
				p := &pairs[z.Uint64()]
				sp := e.tr.begin("server.query_hit", -1, op)
				start := time.Now()
				code, body, err := serve(h, &w, "/query", p.body)
				d := time.Since(start)
				e.tr.end(sp)
				if err == nil && (code != http.StatusOK || !bytes.Equal(body, p.ref)) {
					_, err = checkResponse(code, body, p.mode, p.want, served, o)
				}
				if err == nil && e.tr != nil {
					mineKB = append(mineKB, float64(len(body))/1024)
					// Probe: the same statement straight into core,
					// which the handler wraps.
					sp := e.tr.begin("core.query_hit", -1, op)
					_, err = sys.QueryContext(e.ctx, p.sql, modeOf(p.mode))
					e.tr.end(sp)
				}
				out.record(err)
				if err == nil {
					mine = append(mine, ms(d))
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			respKB = append(respKB, mineKB...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	met.finish()
	if len(lat) == 0 {
		return nil, fmt.Errorf("no operation succeeded")
	}
	after := sys.PlannerStats()
	if err := o.checkAll(sys.Rules()); err != nil {
		return nil, fmt.Errorf("served rules after the run: %w", err)
	}
	out.correct = true
	if e.tr == nil {
		out.metrics.common(met, len(lat), lat)
		return out, nil
	}
	for _, l := range [][3]string{
		{"server.hit_us", "server.query_hit", "us"},
		{"core.query_hit_us", "core.query_hit", "us"},
	} {
		if err := e.tr.layer(out.metrics, l[0], l[1], l[2]); err != nil {
			return nil, err
		}
	}
	out.metrics.put("server.resp_kb", mean(respKB), "KiB")
	hits := after.PlanCacheHits - before.PlanCacheHits
	misses := after.PlanCacheMisses - before.PlanCacheMisses
	out.metrics.put("planner.plan_hit_ratio", float64(hits)/float64(max(1, hits+misses)), "ratio")
	out.metrics.traced(lat)
	return out, nil
}

// coldStatement is read_cold's one shape: a point lookup of a ship by
// Id, joined to its class and restricted on the ship's type.
func coldStatement(id, typ string) stmt {
	return stmt{
		from:  []string{"SHIP", "CLASS"},
		joins: [][2]colRef{shipClassJoin},
		conds: []cond{{shipIDCol, "=", strCell(id)}, {classTypeCol, "=", strCell(typ)}},
		proj:  []colRef{shipIDCol, shipNameCol, shipClassCol, classTypeCol},
	}
}

// pointJoin answers every coldStatement at once by brute force: one
// nested loop over SHIP × CLASS, bucketing joined rows by ship Id.
// Each bucket entry is the projected row; its last cell is the type.
func pointJoin(m *model) map[string][][]cell {
	ship, cls := m.table("SHIP"), m.table("CLASS")
	si, sn, sc := ship.col("Id"), ship.col("Name"), ship.col("Class")
	cc, ct := cls.col("Class"), cls.col("Type")
	out := make(map[string][][]cell, len(ship.rows))
	for _, s := range ship.rows {
		for _, c := range cls.rows {
			if s[sc] == c[cc] {
				out[s[si].s] = append(out[s[si].s], []cell{s[si], s[sn], s[sc], c[ct]})
			}
		}
	}
	return out
}

// expectPoint filters a pointJoin bucket by the statement's type.
func expectPoint(bucket [][]cell, typ string) [][]cell {
	var out [][]cell
	for _, r := range bucket {
		if r[3].s == typ {
			out = append(out, r)
		}
	}
	return out
}

// coldWarmup is how many statements run before read_cold's window, to
// build the snapshot's indexes and the dictionary's sorted values.
const coldWarmup = 40

// runReadCold drives read_cold: every statement is new, so neither the
// response cache nor the plan cache can answer it.
func runReadCold(e *env, db *fleetDB, m *model) (*outcome, error) {
	sys := db.sys
	o := newRuleOracle(m)
	if err := o.checkAll(sys.Rules()); err != nil {
		return nil, fmt.Errorf("served rules before the run: %w", err)
	}
	served := &servedSet{rules: servedByID(sys.Rules())}
	expect := pointJoin(m)
	ship := m.table("SHIP")
	si := ship.col("Id")
	cls := m.table("CLASS")
	typeOf := map[string]string{}
	for _, c := range cls.rows {
		typeOf[c[cls.col("Class")].s] = c[cls.col("Type")].s
	}
	order := rand.New(rand.NewSource(e.seed)).Perm(len(ship.rows))
	stmtFor := func(i int) (string, [][]cell) {
		row := ship.rows[order[i%len(order)]]
		id := row[si].s
		typ := typeOf[row[ship.col("Class")].s]
		return coldStatement(id, typ).sql(), expectPoint(expect[id], typ)
	}
	h := server.New(sys, server.Options{}).Handler()
	var w respWriter
	for i := 0; i < coldWarmup; i++ {
		sql, want := stmtFor(len(order) - 1 - i)
		code, body, err := serve(h, &w, "/query", queryBody(sql, "combined", ""))
		if err != nil {
			return nil, err
		}
		if _, err := checkResponse(code, body, "combined", want, served, o); err != nil {
			return nil, fmt.Errorf("warm-up %q: %w", sql, err)
		}
	}

	out := &outcome{metrics: metricSet{}}
	var (
		mu       sync.Mutex
		lat      []float64
		answered atomic.Int64
		next     atomic.Int64
		wg       sync.WaitGroup
		deadline = time.Now().Add(e.window)
	)
	before := sys.PlannerStats()
	met := startMeter()
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w respWriter
			var mine []float64
			for time.Now().Before(deadline) {
				op := next.Add(1) - 1
				sql, want := stmtFor(int(op))
				var (
					d   time.Duration
					p   answerParts
					err error
				)
				switch {
				case e.tr == nil || op%3 == 0:
					// The program's own path: the handler.
					sp := e.tr.begin("server.query_miss", -1, op)
					start := time.Now()
					var code int
					var body []byte
					code, body, err = serve(h, &w, "/query", queryBody(sql, "combined", ""))
					d = time.Since(start)
					e.tr.end(sp)
					if err == nil {
						p, err = checkResponse(code, body, "combined", want, served, o)
					}
				case op%3 == 1:
					sp := e.tr.begin("core.query_miss", -1, op)
					var resp *core.Response
					resp, err = sys.QueryContext(e.ctx, sql, answer.Combined)
					e.tr.end(sp)
					if err == nil {
						p = partsFromProgram(resp.Extensional, resp.Inference)
						err = verifyAnswer(p, want, served.rules, o)
					}
				default:
					p, err = reconstructQuery(e, sys, sql, op)
					if err == nil {
						err = verifyAnswer(p, want, served.rules, o)
					}
				}
				if err == nil && p.answered {
					answered.Add(1)
				}
				out.record(err)
				if err == nil && (e.tr == nil || op%3 == 0) {
					mine = append(mine, ms(d))
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	met.finish()
	if len(lat) == 0 {
		return nil, fmt.Errorf("no operation succeeded")
	}
	after := sys.PlannerStats()
	if err := o.checkAll(sys.Rules()); err != nil {
		return nil, fmt.Errorf("served rules after the run: %w", err)
	}
	out.correct = true
	if e.tr == nil {
		out.metrics.common(met, len(lat), lat)
		return out, nil
	}
	attempted, _ := out.counts()
	ops := float64(attempted)
	for _, l := range [][3]string{
		{"core.query_miss_ms", "core.query_miss", "ms"},
		{"query.prepare_ms", "core.prepare", "ms"},
		{"exec.run_ms", "query.run", "ms"},
		{"dict.snap_ms", "dict.snap", "ms"},
		{"infer.derive_ms", "infer.derive", "ms"},
		{"answer.render_us", "answer.render", "us"},
	} {
		if err := e.tr.layer(out.metrics, l[0], l[1], l[2]); err != nil {
			return nil, err
		}
	}
	out.metrics.put("planner.index_scans_per_op", float64(after.IndexScans-before.IndexScans)/ops, "count")
	out.metrics.put("planner.full_scans_per_op", float64(after.FullScans-before.FullScans)/ops, "count")
	out.metrics.put("infer.answered_ratio", float64(answered.Load())/ops, "ratio")
	out.metrics.traced(lat)
	return out, nil
}

// reconstructQuery runs QueryContext's stages one public call at a
// time — Prepare, RunContext, SnapToObserved per restriction, Derive,
// Render — so each can be timed. The traced run uses it in place of
// the program's own composition.
func reconstructQuery(e *env, sys *core.System, sql string, op int64) (answerParts, error) {
	root := e.tr.begin("recon.query", -1, op)
	defer e.tr.end(root)
	sp := e.tr.begin("core.prepare", root.idx, op)
	prep, err := sys.Prepare(sql)
	e.tr.end(sp)
	if err != nil {
		return answerParts{}, err
	}
	sp = e.tr.begin("query.run", root.idx, op)
	ext, err := prep.RunContext(e.ctx)
	e.tr.end(sp)
	if err != nil {
		return answerParts{}, err
	}
	d := sys.Dictionary()
	for _, r := range prep.Analysis.Restrictions {
		if !r.HasInterval {
			continue
		}
		sp = e.tr.begin("dict.snap", root.idx, op)
		_, _, err := d.SnapToObserved(r.Attr, r.Interval)
		e.tr.end(sp)
		if err != nil {
			return answerParts{}, err
		}
	}
	sp = e.tr.begin("infer.derive", root.idx, op)
	res, err := infer.New(d).Derive(prep.Analysis)
	e.tr.end(sp)
	if err != nil {
		return answerParts{}, err
	}
	sp = e.tr.begin("answer.render", root.idx, op)
	ans := answer.Render(prep.Analysis, res, answer.Combined)
	e.tr.end(sp)
	if len(ans.Lines) == 0 {
		return answerParts{}, fmt.Errorf("rendered answer has no lines")
	}
	return partsFromProgram(ext, res), nil
}
