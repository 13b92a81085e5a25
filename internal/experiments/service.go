package experiments

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/kvclient"
	"tinystm/internal/kvserver"
	"tinystm/internal/rng"
	"tinystm/internal/tuning"
	"tinystm/internal/txn"
)

// The service scaffold: ProtoSweep measures a real kvserver.New(cfg)
// behind a loopback listener, driven through the daemon's own request
// path by kvclient.Mix.Do. What a point compares — gate off vs. on, HTTP
// vs. binary — is a difference in kvserver.Config and nothing else. Each
// worker owns one connection, so the worker count IS the fan-in: on the
// binary surface a connection's short requests run on its reader, and the
// updaters that can conflict are the busy connections.

// Wire surfaces a service point can be measured over.
const (
	surfaceHTTP   = "http"
	surfaceBinary = "binary"
)

// ServiceStats is the server-side half of a measured service point.
type ServiceStats struct {
	// Params is the geometry the server ended on.
	Params core.Params
	// Commits/Aborts/Reconfigs are the TM counter deltas over the measured
	// window; AbortRatio is aborts/(commits+aborts).
	Commits, Aborts, Reconfigs uint64
	AbortRatio                 float64
	// AdmWidth is the admission gate's width (0: no gate) and Waited how
	// many updates had to queue at it.
	AdmWidth int
	Waited   uint64
	// Events is the server's tuning trace (nil without Autotune).
	Events []tuning.Event
}

// service is one live server on one surface.
type service struct {
	srv     *kvserver.Server
	surface string
	addr    string
	stop    func() // closes the listener
	before  txn.Stats
}

// startService boots kvserver.New(cfg) on a loopback listener serving
// surface and preloads keys [0, keys) through the store.
func startService(cfg kvserver.Config, surface string, keys uint64) *service {
	srv, err := kvserver.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: service: %v", err))
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		panic(fmt.Sprintf("experiments: service: %v", err))
	}
	s := &service{srv: srv, surface: surface, addr: l.Addr().String()}
	if surface == surfaceHTTP {
		hs := &http.Server{Handler: srv.Handler()}
		go hs.Serve(l)
		s.stop = func() { hs.Close() }
	} else {
		go srv.ServeProto(l)
		s.stop = func() { l.Close() }
	}
	for k := uint64(0); k < keys; k++ {
		srv.Store().Put(k, 1)
	}
	s.before = srv.TM().Stats()
	return s
}

// dial opens one worker's own connection to the server.
func (s *service) dial() (t kvclient.Target, hangUp func()) {
	if s.surface == surfaceHTTP {
		h := kvclient.NewHTTP("http://"+s.addr, 1, 0)
		return h, h.Close
	}
	c := kvclient.New(s.addr, kvclient.Options{})
	return c, c.Close
}

// closedLoop runs workers clients back to back for d, each drawing mix
// over its own connection, and returns the operations completed and how
// many of them failed.
func (s *service) closedLoop(workers int, d time.Duration, seed uint64, mix *kvclient.Mix) (ops, errs uint64, elapsed time.Duration) {
	results := make([]struct{ ops, errs uint64 }, workers)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t, hangUp := s.dial()
			defer hangUp()
			r := rng.NewThread(seed, w)
			var ops, errs uint64
			for ; time.Now().Before(deadline); ops++ {
				if err := mix.Do(t, r); err != nil {
					errs++
				}
			}
			results[w].ops, results[w].errs = ops, errs
		}()
	}
	wg.Wait()
	for _, r := range results {
		ops += r.ops
		errs += r.errs
	}
	return ops, errs, time.Since(start)
}

// finish shuts the server down and reports what it did since preload.
func (s *service) finish() ServiceStats {
	delta := s.srv.TM().Stats().Sub(s.before)
	st := ServiceStats{
		Params:  s.srv.TM().Params(),
		Commits: delta.Commits, Aborts: delta.Aborts, Reconfigs: delta.Reconfigs,
	}
	if total := delta.Commits + delta.Aborts; total > 0 {
		st.AbortRatio = float64(delta.Aborts) / float64(total)
	}
	if g := s.srv.Gate(); g != nil {
		st.AdmWidth, _, _, st.Waited = g.Stats()
	}
	s.stop()
	s.srv.Close()
	if rt := s.srv.Runtime(); rt != nil {
		st.Events = rt.Trace()
	}
	return st
}

// mustMix is kvclient.NewMix for a mix the experiment itself wrote down.
func mustMix(x kvclient.Mix) *kvclient.Mix {
	m, err := kvclient.NewMix(x)
	if err != nil {
		panic(err)
	}
	return m
}
