package main

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"intensional/internal/answer"
	"intensional/internal/core"
	"intensional/internal/induct"
	"intensional/internal/relation"
	"intensional/internal/rules"
	"intensional/internal/server"
	"intensional/internal/synth"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // reversed, so the function must sort
		}
		return s
	}
	cases := []struct {
		n      int
		q      float64
		want   float64
		report bool
	}{
		{1000, 0.99, 990, true},  // ranks 991..1000 lie beyond: ten
		{999, 0.99, 990, false},  // only nine beyond
		{2000, 0.99, 1980, true}, // twenty beyond
		{100, 0.9, 90, true},     // ten beyond p90
		{99, 0.9, 90, false},
		{1, 0.5, 1, true}, // the median is always reported
		{7, 0.5, 4, true},
		{40, 0.5, 20, true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.q)
		if got != c.want || ok != c.report {
			t.Errorf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.report)
		}
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestTracedOmitsTailWithoutSamples(t *testing.T) {
	lat := make([]float64, 999)
	for i := range lat {
		lat[i] = float64(i)
	}
	s := metricSet{}
	s.traced(lat)
	if _, ok := s["traced.op_p99_ms"]; ok {
		t.Error("traced.op_p99_ms reported from 999 samples")
	}
	s = metricSet{}
	s.traced(append(lat, 999))
	if _, ok := s["traced.op_p99_ms"]; !ok {
		t.Error("traced.op_p99_ms missing from 1000 samples")
	}
}

// TestConform checks the result line against the repository's
// BENCHMARK.json: an untraced run must report every end-to-end metric
// in its unit, and a traced run gets a zero for every per-layer metric
// its workload does not reach.
func TestConform(t *testing.T) {
	man, err := loadManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	m := &meter{wall: 1e9, cpu: 1e9}
	s := metricSet{"setup_s": {1, "s"}}
	s.common(m, 2, []float64{1, 2})
	if err := man.conform(s, false); err != nil {
		t.Errorf("untraced: %v", err)
	}
	delete(s, "ops_s")
	if err := man.conform(s, false); err == nil {
		t.Error("untraced run without ops_s accepted")
	}
	s = metricSet{}
	s.traced([]float64{1, 2})
	if err := man.conform(s, true); err != nil {
		t.Errorf("traced: %v", err)
	}
	if len(s) != len(man.PerLayer) || s["replica.chunk_ms"].Unit != "ms" || s["replica.chunk_ms"].Value != 0 {
		t.Errorf("traced run not filled from the manifest: %v", s)
	}
	s["traced.op_p50_ms"] = metricValue{1, "s"}
	if err := man.conform(s, true); err == nil {
		t.Error("metric in the wrong unit accepted")
	}
}

// smallFleet is a 240-ship fleet with its rules induced, plus the model.
func smallFleet(t *testing.T) (*core.System, *model) {
	t.Helper()
	cfg := synth.FleetConfig{ClassesPerType: 2, ShipsPerClass: 10, Seed: 1}
	cat := synth.Fleet(cfg)
	d, err := synth.FleetDictionary(cat)
	if err != nil {
		t.Fatal(err)
	}
	sys := core.New(cat, d)
	if _, err := sys.InduceContext(context.Background(), induct.Options{Nc: induceNc}); err != nil {
		t.Fatal(err)
	}
	m, err := newModel(synth.Fleet(cfg), synth.FleetShip, synth.FleetClass, synth.FleetType)
	if err != nil {
		t.Fatal(err)
	}
	return sys, m
}

// idRule returns a served SHIP.Id → SHIP.Class rule.
func idRule(t *testing.T, sys *core.System) *rules.Rule {
	t.Helper()
	for _, r := range sys.Rules().Rules() {
		if len(r.LHS) == 1 && r.LHS[0].Attr.String() == "SHIP.Id" && r.RHS.Attr.String() == "SHIP.Class" {
			return r
		}
	}
	t.Fatal("no SHIP.Id → SHIP.Class rule induced")
	return nil
}

func TestOraclesAcceptTheProgramsAnswers(t *testing.T) {
	sys, m := smallFleet(t)
	o := newRuleOracle(m)
	if err := o.checkAll(sys.Rules()); err != nil {
		t.Fatalf("served rules: %v", err)
	}
	served := &servedSet{rules: servedByID(sys.Rules())}
	h := server.New(sys, server.Options{}).Handler()
	var w respWriter
	st := stmt{
		from:  []string{"SHIP", "CLASS"},
		joins: [][2]colRef{shipClassJoin},
		conds: []cond{{classTypeCol, "=", strCell("SSN")}, {shipIDCol, ">=", strCell("SSN130")}},
		proj:  []colRef{shipIDCol, shipNameCol, classTypeCol},
	}
	want, err := m.eval(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("statement selects nothing; pick another")
	}
	for _, mode := range hotModes {
		code, body, err := serve(h, &w, "/query", queryBody(st.sql(), mode, ""))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := checkResponse(code, body, mode, want, served, o); err != nil {
			t.Errorf("mode %s: %v", mode, err)
		}
	}
	for _, typ := range typeNames() {
		st := stmt{from: []string{"CLASS"}, conds: []cond{{classTypeCol, "=", strCell(typ)}}, proj: []colRef{classClassCol, classDispCol}}
		resp, err := sys.QueryContext(context.Background(), st.sql(), answer.BackwardOnly)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.eval(st, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := verifyAnswer(partsFromProgram(resp.Extensional, resp.Inference), want, served.rules, o); err != nil {
			t.Errorf("type %s: %v", typ, err)
		}
	}
}

func TestOracleRejectsCorruptedRow(t *testing.T) {
	sys, m := smallFleet(t)
	o := newRuleOracle(m)
	served := &servedSet{rules: servedByID(sys.Rules())}
	st := coldStatement("SSN125", "SSN")
	want, err := m.eval(st, nil)
	if err != nil || len(want) != 1 {
		t.Fatalf("brute force: %v rows, %v", len(want), err)
	}
	h := server.New(sys, server.Options{}).Handler()
	var w respWriter
	code, body, err := serve(h, &w, "/query", queryBody(st.sql(), "combined", ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkResponse(code, body, "combined", want, served, o); err != nil {
		t.Fatalf("untouched response rejected: %v", err)
	}
	corrupt := []byte(strings.Replace(string(body), `"SSN125"`, `"SSN126"`, 1))
	if string(corrupt) == string(body) {
		t.Fatal("corruption did not apply")
	}
	_, err = checkResponse(http.StatusOK, corrupt, "combined", want, served, o)
	if err == nil || !strings.Contains(err.Error(), "brute force") {
		t.Fatalf("corrupted row accepted: %v", err)
	}
	// The same corruption in the model instead of the answer.
	bad := [][]cell{append([]cell(nil), want[0]...)}
	bad[0][1] = strCell("not the ship's name")
	if err := verifyAnswer(partsFromWire(mustDecode(t, body)), bad, served.rules, o); err == nil {
		t.Fatal("answer accepted against a corrupted expectation")
	}
}

func mustDecode(t *testing.T, body []byte) *queryWire {
	t.Helper()
	q, err := decodeQuery(body)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestOracleRejectsContradictedRule(t *testing.T) {
	sys, m := smallFleet(t)
	r := idRule(t, sys)
	o := newRuleOracle(m)
	if err := o.check(r); err != nil {
		t.Fatalf("rule %s rejected on untouched rows: %v", r, err)
	}
	// A ship inside the rule's Id range with another class.
	other := "0102"
	if r.RHS.Lo.Str() == other {
		other = "0101"
	}
	o.setExtra("SHIP", [][]cell{{strCell(r.LHS[0].Lo.Str() + "x"), strCell("intruder"), strCell(other)}})
	if err := o.check(r); err == nil {
		t.Fatalf("rule %s accepted though a row contradicts it", r)
	}
	// An answer citing the contradicted rule fails too.
	p := answerParts{cited: []int{r.ID}}
	if err := verifyAnswer(p, nil, servedByID(sys.Rules()), o); err == nil {
		t.Fatal("answer citing a contradicted rule accepted")
	}
	// So does one citing a rule the system does not serve.
	if err := verifyAnswer(answerParts{cited: []int{1 << 30}}, nil, servedByID(sys.Rules()), newRuleOracle(m)); err == nil {
		t.Fatal("answer citing an unserved rule accepted")
	}
}

func TestOracleRejectsDisplacementOutsideTable1(t *testing.T) {
	_, m := smallFleet(t)
	o := newRuleOracle(m)
	lo, hi, _ := table1Range("SSN")
	inside := &rules.Rule{ID: 7,
		LHS: []rules.Clause{rules.RangeClause(rules.Attr("CLASS", "Displacement"), relation.Int(lo), relation.Int(hi))},
		RHS: rules.PointClause(rules.Attr("CLASS", "Type"), relation.String("SSN"))}
	if err := table1Rule(inside); err != nil {
		t.Fatalf("Table 1's own range rejected: %v", err)
	}
	outside := &rules.Rule{ID: 8,
		LHS: []rules.Clause{rules.RangeClause(rules.Attr("CLASS", "Displacement"), relation.Int(lo), relation.Int(hi+1))},
		RHS: rules.PointClause(rules.Attr("CLASS", "Type"), relation.String("SSN"))}
	if err := o.check(outside); err == nil || !strings.Contains(err.Error(), "Table 1") {
		t.Fatalf("range past Table 1 accepted: %v", err)
	}
	p := answerParts{ranges: []typeRange{{typ: "SSN", lo: intCell(lo - 1), hi: intCell(hi), what: "test"}}}
	if err := verifyAnswer(p, nil, nil, o); err == nil {
		t.Fatal("description past Table 1 accepted")
	}
	attr, clo, chi, ok := parseClause("1720 <= CLASS.Displacement <= 2186")
	if !ok || attr != "CLASS.Displacement" || clo.i != 1720 || chi.i != 2186 {
		t.Fatalf("parseClause: %q %v %v %v", attr, clo, chi, ok)
	}
}

func TestMultisetDigestIgnoresOrderOnly(t *testing.T) {
	a := multisetDigest([]string{"x", "y", "y"})
	if b := multisetDigest([]string{"y", "x", "y"}); a != b {
		t.Error("digest depends on row order")
	}
	if c := multisetDigest([]string{"x", "y"}); a == c {
		t.Error("digest ignores a duplicate row")
	}
}

// BenchmarkTracerSpan measures what one recorded span costs a traced
// run: the direct part of the tracing overhead.
func BenchmarkTracerSpan(b *testing.B) {
	tr := newTracer()
	for i := 0; i < b.N; i++ {
		tr.end(tr.begin("bench.span", -1, int64(i)))
	}
}
