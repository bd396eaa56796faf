package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topology"
	traffic "repro/internal/workload"
)

// simSpec is the largest built-in fractahedron, 512 nodes.
const simSpec = "fat-fract:levels=3"

// A simulate op injects simPackets uniform-random packets of simFlits
// flits within a simWindow-cycle window: more than the fabric drains in
// that window, so it runs saturated.
const (
	simPackets = 24000
	simFlits   = 8
	simWindow  = 6000
	// simBatches is how many distinct batches a run cycles through: op i
	// uses batch i%simBatches, regenerated fresh, so every batch's
	// fingerprint is checked to repeat exactly.
	simBatches = 8
)

// simConfig is the simulator configuration of every simulate op.
var simConfig = sim.Config{FIFODepth: 4}

// simulateWorkload is §4's flit-level simulator at the largest built-in
// scale: route and table building happen in set-up, and each op is one
// saturating batch.
type simulateWorkload struct {
	seed int64
	log  io.Writer // receives each batch's fingerprint
}

func (w *simulateWorkload) unit() string { return "flit moves" }

// fingerprint is the part of a simulation result that must repeat
// exactly for a given batch.
type fingerprint struct {
	Cycles, FlitMoves, P50, P99 int
}

func (f fingerprint) String() string {
	return fmt.Sprintf("cycles=%d flit_moves=%d p50=%d p99=%d", f.Cycles, f.FlitMoves, f.P50, f.P99)
}

type simulateInstance struct {
	w     *simulateWorkload
	sys   *core.System
	nodes int
	seen  map[int]fingerprint // batch -> fingerprint of its first run
}

func (w *simulateWorkload) setup(tr *tracer) (instance, error) {
	sys, err := parseSystem(tr, simSpec)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		// The three calls core.NewFractahedron makes, one span each, on
		// a second build of the same system.
		if err := tracedBuild(tr, sys); err != nil {
			return nil, err
		}
	}
	return &simulateInstance{w: w, sys: sys, nodes: sys.Net.NumNodes(), seen: map[int]fingerprint{}}, nil
}

// tracedBuild builds simSpec again through the three calls
// core.NewFractahedron makes, and checks it enables the same turns as
// sys.
func tracedBuild(tr *tracer, sys *core.System) error {
	f := call(tr, "topology.build", func() *topology.Fractahedron { return topology.NewFractahedron(topology.Tetra(3, true)) })
	tb := call(tr, "routing.tables", func() *routing.Tables { return routing.Fractahedron(f) })
	dis, err := call2(tr, "router.from_tables", func() (*router.Disables, error) { return router.FromTables(tb) })
	if err != nil {
		return err
	}
	gotOn, gotOff := dis.Counts()
	wantOn, wantOff := sys.Disables.Counts()
	if gotOn != wantOn || gotOff != wantOff {
		return fmt.Errorf("simulate: step-by-step build enables %d/%d turns, ParseSystem %d/%d", gotOn, gotOff, wantOn, wantOff)
	}
	return nil
}

// batch generates op i's packets.
func (w *simulateWorkload) batch(i, nodes int) []sim.PacketSpec {
	return traffic.UniformRandom(runner.RNG(w.seed, i%simBatches), nodes, simPackets, simFlits, simWindow)
}

func (in *simulateInstance) op(i int, tr *tracer) (time.Duration, int64, error) {
	specs := in.w.batch(i, in.nodes)
	start := time.Now()
	res, err := simulate(in.sys, specs, tr)
	d := time.Since(start)
	if err != nil {
		return d, 0, err
	}
	fp, err := checkSim(res, len(specs))
	if err != nil {
		return d, 0, err
	}
	b := i % simBatches
	if want, ok := in.seen[b]; !ok {
		in.seen[b] = fp
		fmt.Fprintf(in.w.log, "simulate seed=%d batch=%d %v\n", in.w.seed, b, fp)
	} else if fp != want {
		return d, 0, fmt.Errorf("simulate: batch %d fingerprint %v, first run %v", b, fp, want)
	}
	tr.add("sim.cycles", int64(fp.Cycles))
	tr.add("sim.flit_moves", int64(fp.FlitMoves))
	return d, int64(fp.FlitMoves), nil
}

func (in *simulateInstance) close() error { return nil }

// checkSim checks that every packet was injected and delivered without
// deadlock, and returns the result's fingerprint.
func checkSim(res sim.Result, packets int) (fingerprint, error) {
	fp := fingerprint{Cycles: res.Cycles, FlitMoves: res.FlitMoves(), P50: res.P50Latency, P99: res.P99Latency}
	switch {
	case res.Deadlocked:
		return fp, fmt.Errorf("simulate: deadlocked at cycle %d", res.Cycles)
	case res.Injected != packets || res.Delivered != packets || res.Dropped != 0:
		return fp, fmt.Errorf("simulate: %d packets, %d injected, %d delivered, %d dropped",
			packets, res.Injected, res.Delivered, res.Dropped)
	}
	return fp, nil
}

// simulate is System.Simulate. Traced, it makes the same three calls one
// by one, so each gets a span.
func simulate(sys *core.System, specs []sim.PacketSpec, tr *tracer) (sim.Result, error) {
	if tr == nil {
		return sys.Simulate(specs, simConfig)
	}
	sm := call(tr, "sim.new", func() *sim.Simulator { return sim.New(sys.Net, sys.Disables, simConfig) })
	if _, err := call2(tr, "sim.add_batch", func() (struct{}, error) { return struct{}{}, sm.AddBatch(sys.Tables, specs) }); err != nil {
		return sim.Result{}, err
	}
	return call(tr, "sim.run", sm.Run), nil
}
