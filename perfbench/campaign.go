package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/serve"
)

// A campaign op is a sweep job over the 512-node fractahedron at two
// light rates, so each point is dominated by rebuilding the system.
var campaignRates = []float64{0.002, 0.004}

const (
	campaignCycles = 200
	campaignFlits  = 8
)

// campaignWorkload is the campaign server seen by one HTTP client over
// loopback: each op submits a job no cache can answer and streams its
// rows to the end.
type campaignWorkload struct {
	seed    int64
	scratch string // parent of each set-up's checkpoint and cache directories
}

func (w *campaignWorkload) unit() string { return "sweep points computed" }

// job is op i's sweep. Its seed is unique per op, so every job computes.
func (w *campaignWorkload) job(i int) experiments.SweepSpec {
	return experiments.SweepSpec{
		Specs:     []string{simSpec},
		Rates:     campaignRates,
		Cycles:    campaignCycles,
		Flits:     campaignFlits,
		FIFODepth: 4,
		Seed:      runner.PointSeed(w.seed, i),
	}
}

type campaignInstance struct {
	w      *campaignWorkload
	dir    string
	srv    *serve.Server
	base   string
	client *http.Client
}

func (w *campaignWorkload) setup(tr *tracer) (instance, error) {
	dir, err := os.MkdirTemp(w.scratch, "campaign-")
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	srv, err := call2(tr, "serve.start", func() (*serve.Server, error) {
		srv, err := serve.New(serve.Config{
			Addr:          "127.0.0.1:0",
			CheckpointDir: filepath.Join(dir, "ckpt"),
			CacheDir:      filepath.Join(dir, "cache"),
		})
		if err != nil {
			return nil, err
		}
		if err := srv.Start(); err != nil {
			srv.Close()
			return nil, err
		}
		return srv, nil
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return &campaignInstance{
		w:      w,
		dir:    dir,
		srv:    srv,
		base:   "http://" + srv.Addr(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}},
	}, nil
}

func (in *campaignInstance) close() error {
	in.client.CloseIdleConnections()
	err := in.srv.Close()
	if rerr := os.RemoveAll(in.dir); err == nil {
		err = rerr
	}
	return err
}

func (in *campaignInstance) op(i int, tr *tracer) (time.Duration, int64, error) {
	spec := in.w.job(i)
	body, err := json.Marshal(serve.JobSpec{Kind: "sweep", Sweep: &spec})
	if err != nil {
		return 0, 0, err
	}
	before, err := in.statusz()
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	key, err := call2(tr, "serve.submit", func() (string, error) { return in.submit(body) })
	if err != nil {
		return time.Since(start), 0, err
	}
	streamed, err := call2(tr, "serve.last_row", func() ([]byte, error) { return in.stream(key, tr) })
	d := time.Since(start)
	if err != nil {
		return d, 0, err
	}
	after, err := in.statusz()
	if err != nil {
		return d, 0, err
	}
	computed := after.Points.Computed - before.Points.Computed
	hits := after.Cache.Hits - before.Cache.Hits
	tr.add("serve.points_computed", computed)
	tr.add("serve.cache_hits", hits)
	tr.add("serve.cache_misses", after.Cache.Misses-before.Cache.Misses)
	if computed != int64(spec.Points()) || hits != 0 {
		return d, 0, fmt.Errorf("campaign: job computed %d of %d points with %d cache hits", computed, spec.Points(), hits)
	}
	art, err := in.get("/v1/artifacts/" + key)
	if err != nil {
		return d, 0, err
	}
	if err := checkRows(streamed, art, spec.Points()); err != nil {
		return d, 0, err
	}
	if tr != nil {
		if err := directRows(tr, spec, streamed); err != nil {
			return d, 0, err
		}
	}
	return d, computed, nil
}

// submit posts a job and returns its key.
func (in *campaignInstance) submit(body []byte) (string, error) {
	resp, err := in.client.Post(in.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", fmt.Errorf("campaign: submit: %w", err)
	}
	defer resp.Body.Close()
	var st serve.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", fmt.Errorf("campaign: submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted || st.Cached {
		return "", fmt.Errorf("campaign: submit: status %d, cached %v, error %q", resp.StatusCode, st.Cached, st.Error)
	}
	return st.Key, nil
}

// stream reads the job's NDJSON rows to the end; the time to the first
// row is its own span.
func (in *campaignInstance) stream(key string, tr *tracer) ([]byte, error) {
	first := tr.begin("serve.first_row")
	resp, err := in.client.Get(in.base + "/v1/jobs/" + key + "/rows")
	if err != nil {
		tr.end(first)
		return nil, fmt.Errorf("campaign: stream: %w", err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	r := bufio.NewReader(resp.Body)
	var rerr error
	for rerr == nil {
		var line []byte
		line, rerr = r.ReadBytes('\n')
		out.Write(line)
		if first >= 0 && len(line) > 0 {
			tr.end(first)
			first = -1
		}
	}
	if first >= 0 {
		tr.end(first)
	}
	if rerr != io.EOF {
		return nil, fmt.Errorf("campaign: stream: %w", rerr)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("campaign: stream: status %d: %s", resp.StatusCode, out.Bytes())
	}
	return out.Bytes(), nil
}

func (in *campaignInstance) get(path string) ([]byte, error) {
	resp, err := in.client.Get(in.base + path)
	if err != nil {
		return nil, fmt.Errorf("campaign: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("campaign: GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("campaign: GET %s: status %d: %s", path, resp.StatusCode, b)
	}
	return b, nil
}

func (in *campaignInstance) statusz() (serve.Statusz, error) {
	var st serve.Statusz
	b, err := in.get("/statusz")
	if err != nil {
		return st, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, fmt.Errorf("campaign: statusz: %w", err)
	}
	return st, nil
}

// checkRows checks the streamed rows against the cached artifact: the
// same bytes, one row per point, and no point deadlocked.
func checkRows(streamed, artifact []byte, points int) error {
	if !bytes.Equal(streamed, artifact) {
		return fmt.Errorf("campaign: streamed rows differ from the artifact")
	}
	lines := bytes.Split(bytes.TrimSuffix(streamed, []byte("\n")), []byte("\n"))
	if len(streamed) == 0 || len(lines) != points {
		return fmt.Errorf("campaign: %d rows for %d points", len(lines), points)
	}
	for k, line := range lines {
		var row experiments.SweepPointRow
		if err := json.Unmarshal(line, &row); err != nil {
			return fmt.Errorf("campaign: row %d: %w", k, err)
		}
		if row.Deadlocked {
			return fmt.Errorf("campaign: row %d deadlocked", k)
		}
	}
	return nil
}

// directRows computes the job's points with SweepSpec.Row, each in a
// span, and checks they encode to the streamed rows.
func directRows(tr *tracer, spec experiments.SweepSpec, streamed []byte) error {
	var want bytes.Buffer
	for p := 0; p < spec.Points(); p++ {
		row, err := call2(tr, "experiments.sweep_row", func() (experiments.SweepPointRow, error) { return spec.Row(p, 0) })
		if err != nil {
			return err
		}
		b, err := json.Marshal(row)
		if err != nil {
			return err
		}
		want.Write(append(b, '\n'))
	}
	if !bytes.Equal(want.Bytes(), streamed) {
		return fmt.Errorf("campaign: SweepSpec.Row rows differ from the streamed rows")
	}
	return nil
}
