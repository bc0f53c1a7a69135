package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"intensional/internal/core"
	"intensional/internal/dict"
	"intensional/internal/replica"
	"intensional/internal/server"
	"intensional/internal/storage"
)

// catchupBacklog is B, the records a resuming follower replays each
// cycle.
const catchupBacklog = 32

// followerTimeout bounds how long a follower may take to catch up
// before the cycle counts as failed.
const followerTimeout = 60 * time.Second

// leaderEndpoint serves the leader over one loopback listener.
// replica.Client needs a URL; everything else stays in-process. Each
// cycle installs a fresh handler with its own replica.Leader, so every
// bootstrap encodes the archive anew, as it does on a leader that has
// committed since the last bootstrap.
type leaderEndpoint struct {
	sys  *core.System
	cur  atomic.Pointer[http.Handler]
	srv  *http.Server
	base string
	done chan struct{}
}

func startLeader(sys *core.System) (*leaderEndpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &leaderEndpoint{sys: sys, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	l.fresh()
	l.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*l.cur.Load()).ServeHTTP(w, r)
	})}
	go func() {
		defer close(l.done)
		if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("leader endpoint: %v", err)
		}
	}()
	return l, nil
}

// fresh installs a new server with a new replica tracker.
func (l *leaderEndpoint) fresh() {
	h := server.New(l.sys, server.Options{Replica: replica.NewLeader(l.sys, replica.LeaderOptions{})}).Handler()
	l.cur.Store(&h)
}

// stop closes the listener and every connection, and waits for the
// serving goroutine.
func (l *leaderEndpoint) stop() {
	l.srv.Close() //ilint:allow errdrop — closing the benchmark's own listener
	<-l.done
}

// commitWrites applies n of write_ryw's mutations straight to the
// leader and records them in the model.
func commitWrites(e *env, sys *core.System, g *writeGen, n int) error {
	for i := 0; i < n; i++ {
		op, err := g.next(sys.Rules())
		if err != nil {
			return err
		}
		if _, err := sys.ApplyBatch(e.ctx, []string{op.sql}); err != nil {
			return fmt.Errorf("backlog %s: %w", op.kind, err)
		}
		g.commit(op)
	}
	return nil
}

// followerOptions configures the followers the cycles start.
func followerOptions(dir, leader string) replica.Options {
	return replica.Options{Dir: dir, Leader: leader, PollWait: 5 * time.Second}
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %s", timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// copyDB copies a closed database directory and its WAL.
func copyDB(from, to string) error {
	if err := os.MkdirAll(to, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(from)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		if err := copyFile(filepath.Join(from, ent.Name()), filepath.Join(to, ent.Name())); err != nil {
			return err
		}
	}
	return copyFile(core.WALPath(from), core.WALPath(to))
}

func copyFile(from, to string) error {
	src, err := os.Open(from)
	if err != nil {
		return err
	}
	defer src.Close() //ilint:allow errdrop — read side
	dst, err := os.Create(to)
	if err != nil {
		return err
	}
	if _, err := io.Copy(dst, src); err != nil {
		dst.Close() //ilint:allow errdrop — already failing
		return err
	}
	return dst.Close()
}

// converged checks a follower against the leader: equal version, WAL
// position, served rules, and a row-multiset digest per relation.
func converged(leader, follower *core.System) error {
	if leader.Version() != follower.Version() || leader.WalSeq() != follower.WalSeq() {
		return fmt.Errorf("follower at version %d seq %d, leader at %d seq %d",
			follower.Version(), follower.WalSeq(), leader.Version(), leader.WalSeq())
	}
	ld, err := catalogDigest(leader.Catalog(), dataRelations)
	if err != nil {
		return err
	}
	fd, err := catalogDigest(follower.Catalog(), dataRelations)
	if err != nil {
		return err
	}
	for _, name := range dataRelations {
		if ld[name] != fd[name] {
			return fmt.Errorf("relation %s differs: leader digest %.12s, follower %.12s", name, ld[name], fd[name])
		}
	}
	if a, b := ruleTexts(leader), ruleTexts(follower); a != b {
		return fmt.Errorf("served rule sets differ")
	}
	return nil
}

// dataRelations are the fleet's own relations; the rule relations are
// compared through the served rule sets instead.
var dataRelations = []string{"SHIP", "CLASS", "TYPE"}

// catalogDigest hashes each relation's rows as a multiset: the sorted
// row encodings, hashed in order.
func catalogDigest(cat *storage.Catalog, names []string) (map[string]string, error) {
	out := map[string]string{}
	for _, name := range names {
		r, err := cat.Get(name)
		if err != nil {
			return nil, err
		}
		keys := make([]string, 0, r.Len())
		for _, tup := range r.Rows() {
			row := make([]cell, len(tup))
			for i, v := range tup {
				row[i] = fromValue(v)
			}
			keys = append(keys, rowKey(row))
		}
		out[name] = multisetDigest(keys)
	}
	return out, nil
}

func multisetDigest(keys []string) string {
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		io.WriteString(h, k)    //ilint:allow errdrop — hash writes cannot fail
		io.WriteString(h, "\n") //ilint:allow errdrop — hash writes cannot fail
	}
	return hex.EncodeToString(h.Sum(nil))
}

func ruleTexts(sys *core.System) string {
	var b bytes.Buffer
	for _, r := range sys.Rules().Rules() {
		fmt.Fprintf(&b, "R%d %s\n", r.ID, r)
	}
	return b.String()
}

// runCatchup drives catchup: each cycle a follower B records behind
// resumes through the long-poll path, and a fresh follower bootstraps
// the whole fleet through the chunked snapshot protocol.
func runCatchup(e *env, db *fleetDB, m *model) (*outcome, error) {
	leader := db.sys
	g := newWriteGen(e.seed, m)
	ep, err := startLeader(leader)
	if err != nil {
		return nil, err
	}
	defer ep.stop()

	// The template follower: bootstrapped once the leader has committed
	// one record, then closed. Every cycle resumes a copy of it.
	if err := commitWrites(e, leader, g, 1); err != nil {
		return nil, err
	}
	tmpl := filepath.Join(e.dir, "follower-template")
	f, err := replica.Open(followerOptions(tmpl, ep.base))
	if err != nil {
		return nil, err
	}
	f.Start()
	err = waitFor(followerTimeout, func() bool { return f.Status().Bootstraps >= 1 && f.System().WalSeq() == 1 })
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("template follower: %w", err)
	}
	if err := commitWrites(e, leader, g, catchupBacklog); err != nil {
		return nil, err
	}
	head := leader.WalSeq()
	o := newRuleOracle(m)
	o.setExtra("SHIP", g.extraShips())
	if err := o.checkAll(leader.Rules()); err != nil {
		return nil, fmt.Errorf("leader serves a rule that does not hold: %w", err)
	}
	if err := sameRelation(leader, m, "SHIP", g.extraShips()); err != nil {
		return nil, fmt.Errorf("leader after the backlog: %w", err)
	}

	out := &outcome{metrics: metricSet{}}
	var lat, boot, replay []float64
	var last followers // the latest cycle's followers, kept open for the end checks
	defer last.close() //ilint:allow errdrop — error path only; the success path closes below
	deadline := time.Now().Add(e.window)
	met := startMeter()
	for op := int64(0); time.Now().Before(deadline); op++ {
		if err := last.close(); err != nil {
			return nil, err
		}
		ep.fresh()
		resumeDir := filepath.Join(e.dir, fmt.Sprintf("resume-%d", op))
		freshDir := filepath.Join(e.dir, fmt.Sprintf("fresh-%d", op))
		start := time.Now()
		var r cycleTimes
		if e.tr == nil {
			r, err = programCycle(ep, tmpl, resumeDir, freshDir, head, &last)
		} else {
			r, err = tracedCatchup(e, ep, tmpl, resumeDir, freshDir, head, op, &last)
		}
		took := time.Since(start)
		for _, f := range last {
			if err == nil && (f.sys.WalSeq() != head || f.sys.Version() != leader.Version()) {
				err = fmt.Errorf("follower at seq %d version %d, leader at %d version %d", f.sys.WalSeq(), f.sys.Version(), head, leader.Version())
			}
		}
		out.record(err)
		if err == nil {
			lat = append(lat, ms(took))
			boot = append(boot, ms(r.boot))
			replay = append(replay, r.replay.Seconds())
		}
	}
	met.finish()
	if len(lat) == 0 {
		return nil, fmt.Errorf("no cycle succeeded")
	}
	out.correct = true
	for _, f := range last {
		if err := converged(leader, f.sys); err != nil {
			log.Printf("end of run: %v", err)
			out.correct = false
		}
		if err := o.checkAll(f.sys.Rules()); err != nil {
			log.Printf("end of run: follower serves a rule that does not hold: %v", err)
			out.correct = false
		}
	}
	if err := last.close(); err != nil {
		return nil, err
	}
	var replaySeconds float64
	for _, s := range replay {
		replaySeconds += s
	}
	records := float64(len(replay) * int(head-1))
	if e.tr == nil {
		out.metrics.common(met, len(lat), lat)
		return out, nil
	}
	for _, l := range [][3]string{
		{"replica.manifest_ms", "replica.manifest", "ms"},
		{"replica.chunk_ms", "replica.chunk", "ms"},
		{"core.bootstrap_archive_ms", "core.bootstrap_archive", "ms"},
		{"core.install_bootstrap_ms", "core.install_bootstrap", "ms"},
		{"replica.poll_ms", "replica.poll", "ms"},
		{"core.replay_ms", "core.replay", "ms"},
	} {
		if err := e.tr.layer(out.metrics, l[0], l[1], l[2]); err != nil {
			return nil, err
		}
	}
	out.metrics.put("replica.archive_kb", mean(e.tr.samples("replica.archive_bytes"))/1024, "KiB")
	out.metrics.traced(lat)
	out.metrics.put("traced.bootstrap_p50_ms", median(boot), "ms")
	out.metrics.put("traced.replay_records_s", records/replaySeconds, "1/s")
	return out, nil
}

// follower is a follower a cycle opened: its system, how to close it,
// and its data directory, deleted after closing.
type follower struct {
	sys   *core.System
	close func() error
	dir   string
}

type followers []follower

// close closes every follower and deletes its data, emptying the list.
func (fs *followers) close() error {
	var first error
	for _, f := range *fs {
		if err := f.close(); err != nil && first == nil {
			first = err
		}
		if err := removeDB(f.dir); err != nil && first == nil {
			first = err
		}
	}
	*fs = nil
	return first
}

// cycleTimes are the two measured segments of a catch-up cycle.
type cycleTimes struct {
	replay time.Duration // resume: Start until the follower applied the head
	boot   time.Duration // fresh follower: Open until its bootstrap installed
}

// programCycle runs one cycle through the program's own follower.
func programCycle(ep *leaderEndpoint, tmpl, resumeDir, freshDir string, head uint64, opened *followers) (cycleTimes, error) {
	var t cycleTimes
	if err := copyDB(tmpl, resumeDir); err != nil {
		return t, err
	}
	f1, err := replica.Open(followerOptions(resumeDir, ep.base))
	if err != nil {
		return t, err
	}
	*opened = append(*opened, follower{f1.System(), f1.Close, resumeDir})
	start := time.Now()
	f1.Start()
	ctx, cancel := context.WithTimeout(context.Background(), followerTimeout)
	err = f1.System().WaitForSeq(ctx, head)
	cancel()
	t.replay = time.Since(start)
	if err != nil {
		return t, fmt.Errorf("resume: %w", err)
	}
	if n := f1.Status().Bootstraps; n != 0 {
		return t, fmt.Errorf("resume bootstrapped %d times instead of streaming", n)
	}

	start = time.Now()
	f2, err := replica.Open(followerOptions(freshDir, ep.base))
	if err != nil {
		return t, err
	}
	*opened = append(*opened, follower{f2.System(), f2.Close, freshDir})
	f2.Start()
	err = waitFor(followerTimeout, func() bool { return f2.Status().Bootstraps >= 1 })
	t.boot = time.Since(start)
	if err != nil {
		return t, fmt.Errorf("bootstrap: %w", err)
	}
	return t, nil
}

// tracedCatchup runs one cycle by driving the wire protocol with
// replica.Client and the core calls a follower makes, one public call
// at a time, so each can be timed. The leader's archive build is timed
// by an extra BootstrapArchive call before the manifest request (which
// builds it again inside the handler).
func tracedCatchup(e *env, ep *leaderEndpoint, tmpl, resumeDir, freshDir string, head uint64, op int64, opened *followers) (cycleTimes, error) {
	var t cycleTimes
	cl := &replica.Client{Base: ep.base}
	if err := copyDB(tmpl, resumeDir); err != nil {
		return t, err
	}
	f1, err := core.OpenDurable(resumeDir, core.DurableOptions{Follower: true})
	if err != nil {
		return t, err
	}
	*opened = append(*opened, follower{f1, f1.Close, resumeDir})
	start := time.Now()
	root := e.tr.begin("recon.resume", -1, op)
	for f1.WalSeq() < head {
		sp := e.tr.begin("replica.poll", root.idx, op)
		batch, err := cl.Poll(e.ctx, f1.WalSeq(), 0, 0)
		e.tr.end(sp)
		if err != nil {
			return t, err
		}
		if len(batch.Records) == 0 {
			return t, fmt.Errorf("poll after %d returned nothing below head %d", f1.WalSeq(), head)
		}
		for _, rec := range batch.Records {
			sp := e.tr.begin("core.replay", root.idx, op)
			err := f1.ReplayRecord(rec.Seq, rec.Payload)
			e.tr.end(sp)
			if err != nil {
				return t, fmt.Errorf("replay %d: %w", rec.Seq, err)
			}
		}
	}
	e.tr.end(root)
	t.replay = time.Since(start)

	start = time.Now()
	root = e.tr.begin("recon.bootstrap", -1, op)
	defer e.tr.end(root)
	empty := storage.NewCatalog()
	if err := core.New(empty, dict.New(empty)).Save(freshDir); err != nil {
		return t, err
	}
	f2, err := core.OpenDurable(freshDir, core.DurableOptions{Follower: true})
	if err != nil {
		return t, err
	}
	*opened = append(*opened, follower{f2, f2.Close, freshDir})
	sp := e.tr.begin("core.bootstrap_archive", root.idx, op)
	_, err = ep.sys.BootstrapArchive()
	e.tr.end(sp)
	if err != nil {
		return t, err
	}
	sp = e.tr.begin("replica.manifest", root.idx, op)
	man, err := cl.Manifest(e.ctx)
	e.tr.end(sp)
	if err != nil {
		return t, err
	}
	e.tr.sample("replica.archive_bytes", float64(man.Size))
	data := make([]byte, 0, man.Size)
	for i := range man.Chunks {
		sp := e.tr.begin("replica.chunk", root.idx, op)
		chunk, err := cl.Chunk(e.ctx, man.ID, i, man.ChunkSize)
		e.tr.end(sp)
		if err != nil {
			return t, err
		}
		if sum := sha256.Sum256(chunk); hex.EncodeToString(sum[:]) != man.Chunks[i] {
			return t, fmt.Errorf("chunk %d fails its hash", i)
		}
		data = append(data, chunk...)
	}
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != man.ID {
		return t, fmt.Errorf("archive fails its hash")
	}
	var a core.BootstrapArchive
	if err := json.Unmarshal(data, &a); err != nil {
		return t, fmt.Errorf("decode archive: %w", err)
	}
	sp = e.tr.begin("core.install_bootstrap", root.idx, op)
	err = f2.InstallBootstrap(&a)
	e.tr.end(sp)
	t.boot = time.Since(start)
	return t, err
}
