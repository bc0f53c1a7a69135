// Command perfbench is the repository benchmark. It embeds the
// intensional query system in one process, builds the 120k-ship fleet,
// drives one closed-loop workload for a fixed time, checks every answer
// against oracles of its own, and prints one JSON line: the end-to-end
// metrics, or with --trace 1 the per-layer metrics of a traced run.
//
//	perfbench --workload read_hot|read_cold|write_ryw|catchup \
//	    --seed N --seconds S --trace 0|1 [--work DIR]
//
// See README.md for the workloads, metrics and oracles.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// env is what every workload runs with.
type env struct {
	ctx     context.Context
	dir     string // this run's data directory, removed at exit
	seed    int64
	window  time.Duration
	tr      *tracer // nil on an untraced run
	clients int     // client goroutines for the read workloads
}

// outcome is a workload's verdict and metrics.
type outcome struct {
	tally
	correct bool
	metrics metricSet
}

// tally counts attempted and failed operations.
type tally struct {
	mu        sync.Mutex
	attempted int64 // guarded by mu
	failed    int64 // guarded by mu
	shown     int   // failures already logged; guarded by mu
}

// record counts one operation, failed when err is not nil. The first
// few failures are logged to standard error.
func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if t.shown < 5 {
			t.shown++
			log.Printf("operation failed: %v", err)
		}
	}
}

// counts returns the operations attempted and failed so far.
func (t *tally) counts() (attempted, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.failed
}

var workloads = map[string]func(*env, *fleetDB, *model) (*outcome, error){
	"read_hot":  runReadHot,
	"read_cold": runReadCold,
	"write_ryw": runWriteRYW,
	"catchup":   runCatchup,
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("perfbench: ")
	workload := flag.String("workload", "", "read_hot, read_cold, write_ryw or catchup")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := flag.Float64("seconds", 0, "length of the measured window in seconds (required)")
	trace := flag.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	work := flag.String("work", ".bench_build", "directory for databases and trace files")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || *trace != 0 && *trace != 1 {
		log.Printf("usage: perfbench --workload %s --seed N --seconds S --trace 0|1", strings.Join([]string{"read_hot", "read_cold", "write_ryw", "catchup"}, "|"))
		os.Exit(2)
	}
	// The benchmark runs from the repository root, beside the manifest.
	man, err := loadManifest("BENCHMARK.json")
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
	out, err := runOne(*workload, run, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, *work)
	if err == nil {
		err = man.conform(out.metrics, *trace == 1)
	}
	if err != nil {
		log.Printf("%s: %v", *workload, err)
		os.Exit(1)
	}
	attempted, failed := out.counts()
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int64     `json:"attempted"`
		Failed    int64     `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{out.correct, attempted, failed, out.metrics})
	if err != nil {
		log.Printf("encode result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// manifest is the part of BENCHMARK.json that says what a run reports.
type manifest struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("manifest %s: %w", path, err)
	}
	return &m, nil
}

// conform makes a run's metrics exactly the manifest's list: every
// end-to-end metric for an untraced run, every per-layer metric for a
// traced one. A traced run reports 0 for a layer its workload never
// calls; any other missing metric, a wrong unit or a metric the
// manifest does not name is an error.
func (m *manifest) conform(s metricSet, traced bool) error {
	defs := m.EndToEnd
	if traced {
		defs = m.PerLayer
	}
	named := map[string]bool{}
	for _, d := range defs {
		named[d.Name] = true
		v, ok := s[d.Name]
		switch {
		case !ok && traced:
			s.put(d.Name, 0, d.Unit)
		case !ok:
			return fmt.Errorf("metric %s not measured", d.Name)
		case v.Unit != d.Unit:
			return fmt.Errorf("metric %s measured in %s, manifest says %s", d.Name, v.Unit, d.Unit)
		}
	}
	for name := range s {
		if !named[name] {
			return fmt.Errorf("metric %s is not in the manifest", name)
		}
	}
	return nil
}

func runOne(name string, run func(*env, *fleetDB, *model) (*outcome, error), seed int64, window time.Duration, traced bool, work string) (*outcome, error) {
	dir, err := filepath.Abs(filepath.Join(work, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir) //ilint:allow errdrop — best-effort cleanup of scratch databases
	if err := refuseTmpfs(dir); err != nil {
		return nil, err
	}
	e := &env{ctx: context.Background(), dir: dir, seed: seed, window: window, clients: min(2, runtime.NumCPU())}
	if traced {
		e.tr = newTracer()
	}
	m, err := fleetModel()
	if err != nil {
		return nil, err
	}
	db, setupS, err := setUp(e, durableOptions(name))
	if err != nil {
		return nil, err
	}
	out, err := run(e, db, m)
	if cerr := db.close(); err == nil && cerr != nil {
		err = fmt.Errorf("close: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	if traced {
		for _, l := range [][3]string{
			{"synth.fleet_s", "synth.fleet", "s"},
			{"induct.induce_s", "core.induce", "s"},
			{"storage.save_s", "core.save", "s"},
			{"core.open_durable_s", "core.open_durable", "s"},
		} {
			if err := e.tr.layer(out.metrics, l[0], l[1], l[2]); err != nil {
				return nil, err
			}
		}
		path := filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := e.tr.write(path); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
		log.Printf("spans written to %s", path)
	} else {
		out.metrics.put("setup_s", median(setupS), "s")
	}
	return out, nil
}

// refuseTmpfs fails the run when the databases would live in memory:
// fsync costs nothing on tmpfs, so write and catch-up figures taken there
// are not comparable with figures taken on a disk.
func refuseTmpfs(dir string) error {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return fmt.Errorf("statfs %s: %w", dir, err)
	}
	if st.Type == tmpfsMagic {
		return fmt.Errorf("%s is on tmpfs; run the benchmark from a checkout on a disk filesystem", dir)
	}
	return nil
}
