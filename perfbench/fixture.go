package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/netmodel"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/schema"
	"repro/internal/server"
	"repro/internal/temporal"
	"repro/internal/wal"
	"repro/internal/workload"
)

// fixture holds the generated dataset's handles: exactly one of svc and
// legacy is set.
type fixture struct {
	st     *graph.Store
	svc    *workload.Service
	legacy *workload.Legacy
}

// env is one set-up workload: the fixture loaded into a core.DB, served
// by internal/server on a loopback listener inside this process.
type env struct {
	spec   Spec
	db     *core.DB
	srv    *server.Server
	hs     *http.Server
	served chan error
	base   string
	reg    *obs.Registry
	stmts  []*stmt
	churn  *churn
	tr     *tracer // nil on untraced runs
	walDir string  // the recovered log's scratch directory, if any
}

func fixtureSchema(spec Spec) (*schema.Schema, error) {
	switch spec.Fixture {
	case "service":
		return netmodel.Schema()
	case "legacy":
		return workload.LegacySchema(false)
	}
	return nil, fmt.Errorf("unknown fixture %q", spec.Fixture)
}

// loadFixture builds the workload's dataset into db's store through the
// store's public write path, history churn included.
func loadFixture(spec Spec, db *core.DB, clock *temporal.Clock) (*fixture, error) {
	st := db.Store()
	switch spec.Fixture {
	case "service":
		svc, err := workload.BuildService(st, workload.DefaultServiceConfig())
		if err != nil {
			return nil, err
		}
		if err := workload.ApplyServiceChurn(st, svc, clock, workload.DefaultServiceChurn()); err != nil {
			return nil, err
		}
		return &fixture{st: st, svc: svc}, nil
	case "legacy":
		cfg := workload.DefaultLegacyConfig()
		cfg.Services = spec.LegacyServices
		l, err := workload.BuildLegacy(st, cfg)
		if err != nil {
			return nil, err
		}
		if err := workload.ApplyLegacyChurn(st, l, clock, workload.DefaultLegacyChurn(l)); err != nil {
			return nil, err
		}
		return &fixture{st: st, legacy: l}, nil
	}
	return nil, fmt.Errorf("unknown fixture %q", spec.Fixture)
}

// walImage is a WAL workload's fixture, loaded once per run into a
// checkpointed write-ahead log that every set-up of the run recovers.
type walImage struct {
	dir string   // scratch directory holding the log
	fx  *fixture // the load-time store
}

// loadWAL loads the fixture through an unsynced log and checkpoints it.
// The image is not written again until the run's last set-up serves it:
// earlier set-ups only read.
func loadWAL(spec Spec, scratch string) (*walImage, error) {
	sch, err := fixtureSchema(spec)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(scratch, "wal-")
	if err != nil {
		return nil, err
	}
	img := &walImage{dir: dir}
	clock := temporal.NewManualClock(bench.LoadTime)
	db, err := core.Open(sch, core.WithBackend(spec.Backend), core.WithClock(clock),
		core.WithWALOptions(img.logDir(), wal.Options{NoSync: true}))
	if err == nil {
		img.fx, err = loadFixture(spec, db, clock)
		if err == nil {
			err = db.Checkpoint()
		}
		if cerr := db.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		img.remove()
		return nil, fmt.Errorf("loading the fixture into the write-ahead log: %w", err)
	}
	return img, nil
}

func (img *walImage) logDir() string { return filepath.Join(img.dir, "log") }

func (img *walImage) remove() {
	if img != nil {
		os.RemoveAll(img.dir)
	}
}

// openDB opens a fresh core.DB holding the fixture. Without a WAL it
// builds the fixture into the database; with one it recovers img under
// the default policy (one fsync per write), as a restarted server would,
// and returns the image's load-time store as the fixture: the
// statements and the writer's targets are drawn from it, because a
// store recovered from a checkpoint holds integer fields as float64,
// which the workload samplers do not accept.
func openDB(spec Spec, img *walImage, wrap func(plan.Accessor) plan.Accessor) (*core.DB, *fixture, error) {
	sch, err := fixtureSchema(spec)
	if err != nil {
		return nil, nil, err
	}
	clock := temporal.NewManualClock(bench.LoadTime)
	opts := []core.Option{core.WithBackend(spec.Backend), core.WithClock(clock)}
	if wrap != nil {
		opts = append(opts, core.WithAccessorWrapper(wrap))
	}
	if img != nil {
		db, err := core.Open(sch, append(opts, core.WithWAL(img.logDir()))...)
		return db, img.fx, err
	}
	db, err := core.Open(sch, opts...)
	if err != nil {
		return nil, nil, err
	}
	fx, err := loadFixture(spec, db, clock)
	return db, fx, err
}

// setup opens the database, starts the server, and warms it up: every
// prepared statement is compiled and one request of each shape runs,
// which also builds the relational backend's lazy indexes. It returns
// the time those steps took; on a WAL workload opening is recovering
// img, whose load is not timed. The statements are drawn from the seed,
// outside that time, unless stmts passes those of an earlier set-up of
// the same fixture. tr, when non-nil, installs the traced run's
// wrappers (all idle until switched on).
func setup(spec Spec, seed int64, img *walImage, tr *tracer, stmts []*stmt) (*env, time.Duration, error) {
	e := &env{spec: spec, tr: tr, reg: obs.NewRegistry(), stmts: stmts}
	var wrap func(plan.Accessor) plan.Accessor
	if tr != nil {
		wrap = tr.wrapAccessor
	}
	start := time.Now()
	db, fx, err := openDB(spec, img, wrap)
	if err != nil {
		return nil, 0, err
	}
	loaded := time.Since(start)
	e.db = db
	if tr != nil && db.WAL() != nil {
		db.Store().SetMutationHook(tr.wrapAppend(db.WAL().Append))
	}
	if e.stmts == nil {
		e.stmts, err = buildStatements(spec, fx, db, seed)
	}
	if err == nil {
		e.churn, err = newChurn(fx, seed)
	}
	if err != nil {
		e.db.Close()
		return nil, 0, err
	}

	start = time.Now()
	e.srv = server.New(db, server.Config{Registry: e.reg})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.srv.Shutdown(context.Background())
		return nil, 0, err
	}
	var h http.Handler = e.srv.Handler()
	if tr != nil {
		h = tr.wrapHandler(h)
	}
	e.hs = &http.Server{Handler: h}
	e.served = make(chan error, 1)
	go func() { e.served <- e.hs.Serve(ln) }()
	e.base = "http://" + ln.Addr().String()

	if err := e.warmUp(); err != nil {
		e.close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	return e, loaded + time.Since(start), nil
}

func (e *env) warmUp() error {
	ctx := context.Background()
	c := newClient(e.base, nil)
	defer c.close()
	warmed := map[string]bool{}
	for _, s := range e.stmts {
		if !s.prepared {
			continue
		}
		h, err := c.Prepare(ctx, s.text)
		if err != nil {
			return err
		}
		// One execution per shape, alternating current time and AT.
		if !warmed[s.shape] && s.at == (len(warmed)%2 == 1) {
			warmed[s.shape] = true
			if _, err := h.Exec(ctx, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// close stops the HTTP server, then the Nepal server, which closes the
// database and syncs a WAL.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := e.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// shutdown closes the env and removes its write-ahead log.
func (e *env) shutdown() error {
	err := e.close()
	if e.walDir != "" {
		os.RemoveAll(e.walDir)
	}
	return err
}

// benchClient is an internal/client.Client pinned to one connection, so
// the benchmark never opens more connections than it has loops.
type benchClient struct {
	*client.Client
	tr *http.Transport
}

// newClient returns a one-connection client. A non-nil tracer times the
// transport round trip and counts response bytes of traced requests.
func newClient(base string, t *tracer) *benchClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	var rt http.RoundTripper = tr
	if t != nil {
		rt = spanTransport{base: tr}
	}
	hc := &http.Client{Transport: rt, Timeout: 120 * time.Second}
	return &benchClient{Client: client.New(base, client.WithHTTPClient(hc)), tr: tr}
}

func (c *benchClient) close() { c.tr.CloseIdleConnections() }
