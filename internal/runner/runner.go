// Package runner is the parallel experiment engine: it fans independent
// simulation points (topology × rate × seed × config) over a worker pool
// and merges results in point order, so the merged slice never depends on
// which worker finished first.
//
// Determinism contract: a point's result may depend only on its inputs and
// its own RNG stream, derived from (experiment seed, point index) via
// PointSeed. Under that contract the merged result slice is bit-identical
// regardless of worker count — the property the determinism tests in
// internal/experiments pin. The flit simulator itself draws no randomness
// (ties break by channel order and round-robin arbitration), so the only
// random state in an experiment is the workload generator's explicit
// *rand.Rand, which each point must create for itself.
package runner

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Config controls a campaign: worker-pool width, per-run engine sharding,
// and optional cost accounting. The zero value runs with GOMAXPROCS
// workers, sequential simulator engines, and no stats.
type Config struct {
	// Workers is the pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Shards, when > 1, runs each point's simulator engine sharded over
	// that many goroutines (sim.Config.Shards). Orthogonal to Workers —
	// Workers parallelizes across points, Shards inside one run — and like
	// Workers it can never change a result: the sharded engine is
	// byte-identical to the sequential one.
	Shards int
	// Stats, when non-nil, accumulates per-run cost records.
	Stats *Stats
}

// Option mutates a Config.
type Option func(*Config)

// Workers sets the worker-pool size (<= 0 means GOMAXPROCS).
func Workers(n int) Option { return func(c *Config) { c.Workers = n } }

// Shards sets the per-run simulator engine shard count (<= 1 means the
// sequential engine).
func Shards(n int) Option { return func(c *Config) { c.Shards = n } }

// WithStats attaches a campaign stats accumulator.
func WithStats(s *Stats) Option { return func(c *Config) { c.Stats = s } }

// NewConfig folds options into a Config.
func NewConfig(opts ...Option) Config {
	var c Config
	for _, o := range opts {
		o(&c)
	}
	return c
}

// Map runs fn for every point in [0, n) over the configured worker pool
// and returns the results in point order. Points are claimed from a shared
// counter (work stealing, so uneven point costs balance), but the output
// slice is indexed by point — the schedule never leaks into the result.
// On error the lowest-index failing point's error is returned, so the
// reported failure is deterministic too.
func Map[R any](cfg Config, n int, fn func(point int) (R, error)) ([]R, error) {
	return MapResume(cfg, n, nil, fn, nil)
}

// MapResume is Map with a completed-set skip and a streaming hook, the
// primitives the campaign server's checkpoint/resume and NDJSON streaming
// are built on. For each point, skip (when non-nil) is consulted first: a
// (result, true) return installs the already-known result without running
// fn — the checkpoint fast path. emit (when non-nil) is called once per
// freshly computed point, from the worker that computed it, so callers can
// stream results as they land; emit must be safe for concurrent use and
// receives points in completion order, NOT point order — the caller owns
// re-establishing the merge-in-order contract (the returned slice always
// has it).
//
// Error determinism: the error returned is always that of the
// lowest-index failing point, regardless of worker count or schedule.
// Workers publish the lowest failing index seen so far; points above it
// are cancelled, points below it keep running (one of them may fail
// lower still), so the minimum converges on the true lowest failure.
// emit is never called for a failing point, but may have fired for
// points above the failure before it surfaced.
func MapResume[R any](cfg Config, n int, skip func(point int) (R, bool), fn func(point int) (R, error), emit func(point int, r R)) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	out := make([]R, n)
	errs := make([]error, n)
	var next atomic.Int64
	var minFail atomic.Int64
	minFail.Store(int64(n))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				// The claim counter is monotonic, so once a claim lands
				// above the lowest known failure every later claim will
				// too: this worker is done.
				if i >= n || int64(i) > minFail.Load() {
					return
				}
				if skip != nil {
					if r, ok := skip(i); ok {
						out[i] = r
						continue
					}
				}
				r, err := fn(i)
				if err != nil {
					errs[i] = err
					for {
						cur := minFail.Load()
						if int64(i) >= cur || minFail.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
					// Keep claiming: a lower-index point may still be
					// pending, and it might fail lower than this one.
					continue
				}
				out[i] = r
				if emit != nil {
					emit(i, r)
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("runner: point %d: %w", i, err)
		}
	}
	return out, nil
}

// PointSeed derives an independent per-point seed from an experiment seed
// and a point index (SplitMix64 finalizer over the golden-ratio stride).
// Equal inputs give equal seeds on every platform; distinct indices give
// statistically independent streams. This is the seeding contract the
// determinism tests pin: a point's workload depends only on (seed, index),
// never on which worker ran it or in what order.
func PointSeed(seed int64, point int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(point+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// RNG returns a fresh generator for one point's workload, seeded with
// PointSeed(seed, point).
func RNG(seed int64, point int) *rand.Rand {
	return rand.New(rand.NewSource(PointSeed(seed, point)))
}

// Stat is the cost record of one simulation run.
type Stat struct {
	Label     string
	Cycles    int           // simulated cycles
	FlitMoves int           // flit-channel crossings
	Wall      time.Duration // wall time of the run
}

// Stats accumulates per-run cost records across a campaign. It is safe for
// concurrent use; a nil *Stats discards records, so experiments can call
// Record unconditionally.
type Stats struct {
	mu     sync.Mutex
	start  time.Time
	points []Stat
}

// NewStats creates an accumulator; elapsed time counts from this call.
func NewStats() *Stats { return &Stats{start: time.Now()} }

// Record adds one run's cost. Safe on a nil receiver (no-op).
func (s *Stats) Record(st Stat) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.points = append(s.points, st)
	s.mu.Unlock()
}

// Summary is the aggregate cost of a campaign.
type Summary struct {
	Runs      int
	Cycles    int           // total simulated cycles
	FlitMoves int           // total flit-channel crossings
	SimWall   time.Duration // cumulative per-run wall time
	Elapsed   time.Duration // wall time since NewStats
}

// Summary aggregates the recorded runs.
func (s *Stats) Summary() Summary {
	if s == nil {
		return Summary{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sum := Summary{Elapsed: time.Since(s.start)}
	for _, p := range s.points {
		sum.Runs++
		sum.Cycles += p.Cycles
		sum.FlitMoves += p.FlitMoves
		sum.SimWall += p.Wall
	}
	return sum
}

// String renders the campaign summary. The speedup line is cumulative
// simulation time over elapsed wall time — the effective parallelism the
// worker pool achieved.
func (s *Stats) String() string {
	sum := s.Summary()
	if sum.Runs == 0 {
		return "campaign: no simulation runs recorded"
	}
	speedup := 0.0
	if sum.Elapsed > 0 {
		speedup = float64(sum.SimWall) / float64(sum.Elapsed)
	}
	return fmt.Sprintf(
		"campaign: %d runs, %d cycles simulated, %d flit-moves, sim time %v, wall %v (%.1fx effective parallelism)",
		sum.Runs, sum.Cycles, sum.FlitMoves,
		sum.SimWall.Round(time.Millisecond), sum.Elapsed.Round(time.Millisecond), speedup)
}
