package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/contention"
	"repro/internal/core"
	"repro/internal/deadlock"
	"repro/internal/fabricver"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/runner"
)

// fabricSystem is one system the fabric workload certifies and analyzes,
// with the outputs every op must reproduce.
type fabricSystem struct {
	spec       string
	golden     []byte // committed certificate bytes
	contention int
	bisection  int // 0: not checked
}

// fabricSystems are the two golden-pinned 64-node systems of Table 2.
var fabricSystems = []fabricSystem{
	{spec: "fat-fract:levels=2", contention: 8, bisection: 16},
	{spec: "fattree:d=4,u=2,nodes=64", contention: 12},
}

// fabricWorkload is the paper's design-time question: each op certifies
// both 64-node systems with single-fault enumeration and runs the Table 2
// analysis on them.
type fabricWorkload struct {
	seed    int64
	systems []fabricSystem
}

func newFabric(root string, seed int64) (*fabricWorkload, error) {
	w := &fabricWorkload{seed: seed}
	for _, fs := range fabricSystems {
		name := strings.TrimSuffix(fabricver.CertFileName(fs.spec), ".json") + ".golden.json"
		b, err := os.ReadFile(filepath.Join(root, "internal", "fabricver", "testdata", "certs", name))
		if err != nil {
			return nil, fmt.Errorf("fabric: golden certificate: %w", err)
		}
		fs.golden = b
		w.systems = append(w.systems, fs)
	}
	return w, nil
}

func (w *fabricWorkload) unit() string { return "single faults recertified" }

type fabricInstance struct {
	w    *fabricWorkload
	syss []*core.System
}

func (w *fabricWorkload) setup(tr *tracer) (instance, error) {
	in := &fabricInstance{w: w}
	for _, fs := range w.systems {
		sys, err := parseSystem(tr, fs.spec)
		if err != nil {
			return nil, err
		}
		in.syss = append(in.syss, sys)
	}
	return in, nil
}

// parseSystem is core.ParseSystem inside a span.
func parseSystem(tr *tracer, spec string) (*core.System, error) {
	return call2(tr, "core.parse_system", func() (*core.System, error) {
		sys, _, err := core.ParseSystem(spec)
		return sys, err
	})
}

// analyzeOptions are Table 2's settings, with the bisection search
// seeded from the workload seed and the op.
func (w *fabricWorkload) analyzeOptions(i int) core.AnalyzeOptions {
	return core.AnalyzeOptions{BisectionRestarts: 2, Seed: runner.PointSeed(w.seed, i)}
}

func (in *fabricInstance) op(i int, tr *tracer) (time.Duration, int64, error) {
	opt := in.w.analyzeOptions(i)
	certs := make([]fabricver.Certificate, len(in.syss))
	analyses := make([]core.Analysis, len(in.syss))
	var aerr error
	start := time.Now()
	for k, sys := range in.syss {
		spec := in.w.systems[k].spec
		certs[k] = call(tr, "fabricver.verify", func() fabricver.Certificate {
			return fabricver.Verify(sys, spec, fabricver.Options{})
		})
		if analyses[k], aerr = analyze(sys, opt, tr); aerr != nil {
			break
		}
	}
	d := time.Since(start)
	if aerr != nil {
		return d, 0, aerr
	}
	if tr != nil {
		// Certification without faults, outside the op's time, so the
		// trace splits verify time into structure and faults.
		for k, sys := range in.syss {
			spec := in.w.systems[k].spec
			call(tr, "fabricver.structural", func() fabricver.Certificate {
				return fabricver.Verify(sys, spec, fabricver.Options{SkipFaults: true})
			})
		}
	}
	var faults int64
	for k, fs := range in.w.systems {
		n, err := checkFabric(fs, certs[k], analyses[k])
		if err != nil {
			return d, 0, err
		}
		faults += n
	}
	tr.add("fabricver.faults_tried", faults)
	return d, faults, nil
}

func (in *fabricInstance) close() error { return nil }

// checkFabric checks one system's certificate against its golden bytes
// and its analysis against Table 2, and returns the faults recertified.
func checkFabric(fs fabricSystem, cert fabricver.Certificate, a core.Analysis) (int64, error) {
	b, err := fabricver.MarshalCertificate(cert)
	if err != nil {
		return 0, fmt.Errorf("%s: marshal certificate: %w", fs.spec, err)
	}
	if !bytes.Equal(b, fs.golden) {
		return 0, fmt.Errorf("%s: certificate differs from the committed golden", fs.spec)
	}
	if cert.Faults == nil {
		return 0, fmt.Errorf("%s: certificate has no fault enumeration", fs.spec)
	}
	if a.Contention.Max != fs.contention {
		return 0, fmt.Errorf("%s: contention %d, want %d", fs.spec, a.Contention.Max, fs.contention)
	}
	if fs.bisection != 0 && a.Bisection.Cut != fs.bisection {
		return 0, fmt.Errorf("%s: bisection %d, want %d", fs.spec, a.Bisection.Cut, fs.bisection)
	}
	if !a.Deadlock.Free {
		return 0, fmt.Errorf("%s: analysis finds a deadlock cycle", fs.spec)
	}
	return int64(cert.Faults.LinkFaults.Tried + cert.Faults.RouterFaults.Tried), nil
}

// analyze is System.Analyze. Traced, it makes the same calls one by one,
// in the same order and with the same defaults, so each layer gets a
// span.
func analyze(sys *core.System, opt core.AnalyzeOptions, tr *tracer) (core.Analysis, error) {
	if tr == nil {
		return sys.Analyze(opt)
	}
	var a core.Analysis
	var err error
	if a.Hops, err = call2(tr, "metrics.hops", func() (metrics.HopStats, error) { return metrics.Hops(sys.Tables) }); err != nil {
		return a, err
	}
	if a.Contention, err = call2(tr, "contention.max_link", func() (contention.Result, error) {
		return contention.MaxLinkContention(sys.Tables)
	}); err != nil {
		return a, err
	}
	a.Bisection = call(tr, "metrics.bisection", func() graph.BisectionResult {
		return metrics.Bisection(sys.Net, opt.BisectionRestarts, opt.Seed)
	})
	if a.Deadlock, err = call2(tr, "deadlock.analyze", func() (deadlock.Report, error) { return deadlock.Analyze(sys.Tables) }); err != nil {
		return a, err
	}
	a.Cost = metrics.CostOf(sys.Net)
	return a, nil
}
