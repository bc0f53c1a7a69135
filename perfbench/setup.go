package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"intensional/internal/core"
	"intensional/internal/induct"
	"intensional/internal/synth"
)

// The fleet every workload shares: 12 Table 1 types × 10 classes × 1000
// ships = 120k SHIP rows, 120 CLASS rows, 12 TYPE rows. The generator's
// seed is fixed, so every run serves the same database and rule base;
// the workload seed draws the operations.
const (
	classesPerType = 10
	shipsPerClass  = 1000
	fleetSeed      = 1
	induceNc       = 3
	// setupRepeats is how many times a run builds the fleet; setup_s is
	// the median, and the last build serves the workload.
	setupRepeats = 3
)

func fleetConfig() synth.FleetConfig {
	return synth.FleetConfig{ClassesPerType: classesPerType, ShipsPerClass: shipsPerClass, Seed: fleetSeed}
}

// fleetModel reads the generator's rows into the benchmark's model.
func fleetModel() (*model, error) {
	return newModel(synth.Fleet(fleetConfig()), synth.FleetShip, synth.FleetClass, synth.FleetType)
}

// durableOptions returns the durability settings of a workload's
// leader. write_ryw checkpoints automatically once the log passes 2048
// bytes — every twenty-first one-row batch or so (a record takes about
// 96 bytes) — so each run completes several checkpoints; the other
// workloads never checkpoint on their own.
func durableOptions(workload string) core.DurableOptions {
	o := core.DurableOptions{ReplicationRetain: 4096}
	if workload == "write_ryw" {
		o.CheckpointBytes = 2048
	}
	return o
}

// fleetDB is one set-up's result: a durable system and its directory.
type fleetDB struct {
	sys *core.System
	dir string
}

func (db *fleetDB) close() error {
	if db.sys == nil {
		return nil
	}
	err := db.sys.Close()
	db.sys = nil
	return err
}

// buildFleet runs one set-up: generate the fleet, induce its rules,
// save it, and open it durably.
func buildFleet(e *env, dir string, o core.DurableOptions) (*fleetDB, error) {
	tr := e.tr
	sp := tr.begin("synth.fleet", -1, -1)
	cat := synth.Fleet(fleetConfig())
	d, err := synth.FleetDictionary(cat)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sys := core.New(cat, d)
	sp = tr.begin("core.induce", -1, -1)
	_, err = sys.InduceContext(e.ctx, induct.Options{Nc: induceNc})
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("induce: %w", err)
	}
	sp = tr.begin("core.save", -1, -1)
	err = sys.Save(dir)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("save: %w", err)
	}
	sp = tr.begin("core.open_durable", -1, -1)
	ds, err := core.OpenDurable(dir, o)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("open durable: %w", err)
	}
	return &fleetDB{sys: ds, dir: dir}, nil
}

// setUp builds the fleet setupRepeats times, timing each build, and
// keeps the last one open. Earlier builds are closed and deleted.
func setUp(e *env, o core.DurableOptions) (*fleetDB, []float64, error) {
	var times []float64
	var db *fleetDB
	for i := 0; i < setupRepeats; i++ {
		if db != nil {
			if err := db.close(); err != nil {
				return nil, nil, err
			}
			if err := removeDB(db.dir); err != nil {
				return nil, nil, err
			}
		}
		runtime.GC()
		dir := filepath.Join(e.dir, fmt.Sprintf("leader-%d", i))
		start := time.Now()
		var err error
		if db, err = buildFleet(e, dir, o); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return db, times, nil
}

// removeDB deletes a database directory and its write-ahead log.
func removeDB(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.Remove(core.WALPath(dir)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}
