// Command stmkvd serves the STM-backed key-value store over HTTP with the
// online tuning runtime attached: while traffic flows, the runtime meters
// live commit throughput and re-adapts the TM's lock-table geometry
// (#locks, #shifts, h) to it. The geometry is the only thing it tunes,
// with the paper's hill climber alone. The MVCC sidecar
// is always attached, so /scan, all-Get /batch and Len run as wait-free
// snapshot transactions; while no snapshot is registered it costs an
// update nothing.
//
// Examples:
//
//	stmkvd                                   # listen on :8080, autotune on
//	stmkvd -addr :9000 -geometry 2^16,0,1    # start at the paper's default
//	stmkvd -autotune=false                   # static server at the initial geometry
//	stmkvd -period 200ms -samples 1          # fast tuning cadence (demos, CI)
//	stmkvd -durability group -wal-dir /var/lib/stmkvd
//	                                         # crash-safe: acks after group fsync,
//	                                         # replays the WAL on restart
//	stmkvd -proto-addr :8081 -admission 64   # binary pipelined protocol behind a
//	                                         # 64-wide update-admission gate
//
// stmkvd takes 14 flags (stmkvd -h lists them). The memory design is not
// one of them: the server runs write-back. Nor is conflict resolution:
// the STM has one rule, abort on a foreign lock and wait for that lock
// before the retry (see internal/core). The flight recorder always
// samples one transaction in 64.
//
// Both listen addresses accept :0 for an ephemeral port; the actual
// bound addresses are logged as "http listening on ..." / "proto
// listening on ..." so scripts can parse them.
//
// Endpoints: GET/PUT/DELETE /kv/{key}, POST /kv/{key}/cas, POST
// /kv/{key}/add, POST /batch, GET /stats (what the server is: design,
// geometry, durability and recovery), GET /tuning (the tuner's state and
// per-period events), GET /metrics (every count and gauge, Prometheus
// text format), GET /debug/txtrace (sampled transaction flight recorder),
// GET /healthz, GET /readyz. Keys and values are uint64; see
// internal/kvserver for wire formats. The binary surface (-proto-addr)
// carries the same operations over the kvproto framing, pipelined; see
// internal/kvproto. Drive either with cmd/stmkv-loadgen and watch /tuning
// re-adapt.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tinystm/internal/core"
	"tinystm/internal/kvserver"
)

// reportTail is how many tuning periods and sampled transactions the
// shutdown report prints: the last ones before the process exits.
const reportTail = 16

func main() {
	log.SetFlags(0)
	log.SetPrefix("stmkvd: ")

	var (
		addr      = flag.String("addr", ":8080", "HTTP listen address (:0 for an ephemeral port)")
		protoAddr = flag.String("proto-addr", "", "binary kvproto listen address (empty = HTTP only; :0 for an ephemeral port)")
		admWidth  = flag.Int("admission", 0, "admission gate width, fixed for the server's life: max concurrent update transactions on both surfaces (0 = ungated)")
		space     = flag.Int("space", 1<<22, "transactional arena size in 64-bit words")
		geometry  = flag.String("geometry", "2^8,0,1", "initial lock-table triple locks,shifts,h (accepts 2^k)")
		autotune  = flag.Bool("autotune", true, "attach the online tuning runtime: the lock-table geometry is tuned live")
		period    = flag.Duration("period", time.Second, "tuning sample period")
		samples   = flag.Int("samples", 3, "samples per tuning decision (max kept)")
		seed      = flag.Uint64("seed", 42, "tuner move-selection seed")
		durab     = flag.String("durability", "off", "write-ahead-log ack mode: off, group (needs -wal-dir)")
		walDir    = flag.String("wal-dir", "", "write-ahead-log directory (segments and checkpoints)")
		walBatch  = flag.Duration("wal-batch", 0, "WAL group-commit batch delay (0 = flush immediately)")
		ckptEvry  = flag.Duration("checkpoint-every", 30*time.Second, "snapshot-checkpoint period for WAL truncation (0 = never)")
		debugAddr = flag.String("debug-addr", "", "separate net/http/pprof listen address (empty = no pprof)")
	)
	flag.Parse()

	geo, err := core.ParseParams(*geometry)
	if err != nil {
		log.Fatal(err)
	}
	dmode, err := kvserver.ParseDurability(*durab)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := kvserver.New(kvserver.Config{
		SpaceWords:      *space,
		Geometry:        geo,
		Snapshots:       true,
		Autotune:        *autotune,
		AdmissionWidth:  *admWidth,
		Period:          *period,
		Samples:         *samples,
		Seed:            *seed,
		Durability:      dmode,
		WALDir:          *walDir,
		WALBatch:        *walBatch,
		CheckpointEvery: *ckptEvry,
	})
	if err != nil {
		log.Fatal(err)
	}

	if dmode != kvserver.DurabilityOff {
		// Recovery runs in the background ( /healthz answers, /readyz is
		// 503 meanwhile), but a recovery FAILURE — mid-log corruption, an
		// unwritable directory — must kill the process loudly rather than
		// leave a zombie that 503s forever.
		go func() {
			if err := srv.RecoveryWait(); err != nil {
				log.Fatalf("wal recovery failed: %v", err)
			}
			log.Printf("wal recovery complete, serving (mode=%s dir=%s)", dmode, *walDir)
		}()
	}

	if *debugAddr != "" {
		// pprof on its own listener: profiling stays off the data port
		// (and off the data port's lifecycle gate) so it can never be
		// exposed by accident, only by flag.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("pprof listening on %s", dl.Addr())
		go func() {
			if err := http.Serve(dl, dmux); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof listener: %v", err)
			}
		}()
	}

	// Listen before serving so :0 resolves to a concrete port and scripts
	// can parse the bound addresses from the log.
	hl, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	var pl net.Listener
	if *protoAddr != "" {
		pl, err = net.Listen("tcp", *protoAddr)
		if err != nil {
			log.Fatal(err)
		}
	}

	hs := &http.Server{Handler: srv.Handler()}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		log.Println("shutting down")
		if pl != nil {
			_ = pl.Close()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}()

	log.Printf("serving on %s (geometry=%v autotune=%v admission=%d period=%v)",
		hl.Addr(), geo, *autotune, *admWidth, *period)
	log.Printf("http listening on %s", hl.Addr())
	if pl != nil {
		log.Printf("proto listening on %s", pl.Addr())
		go func() {
			if err := srv.ServeProto(pl); err != nil {
				log.Fatalf("proto listener: %v", err)
			}
		}()
	}
	if err := hs.Serve(hl); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-done

	// Final report: where the tuner went and what the TM saw.
	st := srv.TM().Stats()
	log.Printf("final: params=%v commits=%d aborts=%d reconfigs=%d keys=%d",
		srv.TM().Params(), st.Commits, st.Aborts, st.Reconfigs, srv.Store().Len())
	if rt := srv.Runtime(); rt != nil {
		if best, tp, ok := rt.Best(); ok {
			log.Printf("tuner: best=%v at %.0f txs/s over %d periods", best, tp, rt.Periods())
		} else {
			log.Printf("tuner: no period measured: all %d periods idle", rt.Periods())
		}
		evs := rt.Trace()
		if len(evs) > reportTail {
			evs = evs[len(evs)-reportTail:]
		}
		log.Printf("tuner: last %d periods:", len(evs))
		for _, ev := range evs {
			fmt.Println("  " + ev.String())
		}
	}
	// Flight-recorder tail: the last sampled transactions before shutdown
	// (crash forensics for the run that just ended).
	if evs := srv.TxTrace(reportTail); len(evs) > 0 {
		log.Printf("txtrace: last %d sampled transactions:", len(evs))
		for _, e := range evs {
			fmt.Println("  " + e.String())
		}
	}
	srv.Close()
}
