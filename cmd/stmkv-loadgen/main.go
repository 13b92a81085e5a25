// Command stmkv-loadgen drives a running stmkvd with open-loop,
// Zipf-skewed, service-shaped traffic: requests are issued on a fixed
// arrival schedule (-rate) regardless of response times, the way real
// users arrive, so a slow server configuration shows up as queueing
// latency and shed load instead of silently lowering the offered rate.
//
// The key popularity follows a Zipfian distribution (-theta; 0 uniform,
// 0.99 heavily skewed), the operation mix splits between reads, CAS
// read-modify-writes, multi-key atomic batches and plain writes, and
// -shift flips to a second mix (-read2/-theta2) halfway through the run —
// the phase change the server's autotuner must re-adapt to.
//
// Connection failures and 503s are retried through a shared
// resilience.Retrier: capped exponential backoff under one token-bucket
// retry budget for the whole process, so a run rides through a server
// restart without ever amplifying an outage by more than the budget's
// ratio. The summary's retries/retry-budget lines show how much traffic
// waited out a WAL replay or a degraded server. With -op-timeout every request
// carries that deadline to the server (X-Timeout-Ms on HTTP, the flagged
// TimeoutMs field on the binary surface), and the binary path also runs
// kvclient's circuit breaker in front of redials (-breaker-threshold,
// -breaker-cooldown).
//
// Examples:
//
//	stmkv-loadgen -addr http://localhost:8080 -rate 5000 -duration 30s
//	stmkv-loadgen -rate 2000 -theta 0.99 -read 95          # hot read-mostly
//	stmkv-loadgen -shift -read 90 -read2 30 -theta2 0.5    # mid-run phase flip
//	stmkv-loadgen -min-ops 10000                           # CI gate: exit 1 if fewer complete
package main

import (
	"flag"
	"log"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"tinystm/internal/kvclient"
	"tinystm/internal/resilience"
	"tinystm/internal/rng"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("stmkv-loadgen: ")

	var (
		addr     = flag.String("addr", "http://localhost:8080", "stmkvd base URL (with -proto binary: host:port of -proto-addr)")
		proto    = flag.String("proto", "http", "wire surface: http (JSON) or binary (pipelined kvproto)")
		conns    = flag.Int("conns", 1, "binary-protocol connections; workers round-robin over them (with -proto binary)")
		rate     = flag.Float64("rate", 5000, "arrival rate, requests/second")
		duration = flag.Duration("duration", 10*time.Second, "length of the arrival schedule")
		workers  = flag.Int("workers", 32, "request concurrency")
		queue    = flag.Int("queue", 0, "arrival queue bound (0 = 4x workers); overflow is shed")
		keys     = flag.Uint64("keys", 4096, "keyspace size")
		theta    = flag.Float64("theta", 0.9, "Zipfian key skew in [0,1)")
		readPct  = flag.Int("read", 80, "percent single-key GETs")
		casPct   = flag.Int("cas", 5, "percent CAS read-modify-writes")
		batchPct = flag.Int("batch", 5, "percent multi-key atomic batches")
		bsize    = flag.Int("batch-size", 4, "keys per batch")
		shift    = flag.Bool("shift", false, "flip to the phase-2 mix halfway through")
		readPct2 = flag.Int("read2", 20, "phase-2 percent reads (with -shift)")
		theta2   = flag.Float64("theta2", 0.99, "phase-2 Zipfian skew (with -shift)")
		preload  = flag.Bool("preload", true, "PUT every key once before the timed run")
		seed     = flag.Uint64("seed", 42, "workload seed")
		minOps   = flag.Uint64("min-ops", 0, "exit 1 unless at least this many requests complete")

		opTimeout = flag.Duration("op-timeout", 0, "per-request deadline, propagated to the server (0 = none)")
		retryTok  = flag.Float64("retry-tokens", 0, "retry-budget bucket capacity shared by the whole run (0 = default 16)")
		retryMax  = flag.Int("retry-attempts", 16, "max attempts per request including the first")
		brkThresh = flag.Int("breaker-threshold", 0, "consecutive dial/connection failures that open the binary client's breaker (0 = default 5)")
		brkCool   = flag.Duration("breaker-cooldown", 0, "how long an open breaker waits before probing (0 = default 1s)")
	)
	flag.Parse()

	if *keys == 0 || *rate <= 0 || *workers <= 0 || *bsize <= 0 || *conns <= 0 {
		log.Fatal("-keys, -rate, -workers, -batch-size and -conns must be positive")
	}
	newMix := func(phase string, read int, theta float64) *kvclient.Mix {
		m, err := kvclient.NewMix(kvclient.Mix{Keys: *keys, Theta: theta, ReadPct: read,
			CASPct: *casPct, BatchPct: *batchPct, BatchSize: *bsize})
		if err != nil {
			log.Fatalf("%s mix: %v", phase, err)
		}
		return m
	}
	phase1 := newMix("phase-1", *readPct, *theta)
	phase2 := phase1
	if *shift {
		phase2 = newMix("phase-2", *readPct2, *theta2)
	}

	// One retry budget and one retrier for the whole process: every
	// worker's retries spend from the same bucket, so a server outage is
	// never amplified by more than the budget's 10% of good traffic.
	budget := resilience.NewRetryBudget(&resilience.RetryBudgetConfig{Tokens: *retryTok})
	retrier := resilience.NewRetrier(resilience.RetryConfig{
		MaxAttempts: *retryMax,
		BaseBackoff: 50 * time.Millisecond,
		Budget:      budget,
		Retryable:   kvclient.Retryable,
	})

	// targets are the connections the mix is driven over: one shared HTTP
	// client, or -conns binary clients the workers spread over round-robin.
	var targets []kvclient.Target
	var clients []*kvclient.Client // binary surface only; summary reads breaker stats
	switch *proto {
	case "http":
		h := kvclient.NewHTTP(*addr, 4**workers, *opTimeout)
		defer h.Close()
		targets = []kvclient.Target{h}
	case "binary":
		target := strings.TrimPrefix(*addr, "http://")
		copts := kvclient.Options{
			OpTimeout: *opTimeout,
			Breaker: &resilience.BreakerConfig{
				FailureThreshold: *brkThresh, Cooldown: *brkCool, Seed: *seed,
			},
		}
		for i := 0; i < *conns; i++ {
			cl := kvclient.New(target, copts)
			defer cl.Close()
			clients = append(clients, cl)
			targets = append(targets, cl)
		}
	default:
		log.Fatalf("-proto %q: want http or binary", *proto)
	}

	if *preload {
		r := rng.New(*seed)
		for k := uint64(0); k < *keys; k++ {
			v := r.Uint64() % 1000
			if err := retrier.Do(func() error {
				_, err := targets[0].Put(k, v)
				return err
			}); err != nil {
				log.Fatalf("preload key %d: %v", k, err)
			}
		}
		log.Printf("preloaded %d keys", *keys)
	}

	//stm:allow-atomic client-side phase flip; the loadgen process runs no STM
	var phase atomic.Pointer[kvclient.Mix]
	phase.Store(phase1)
	if *shift {
		time.AfterFunc(*duration/2, func() {
			phase.Store(phase2)
			log.Printf("phase shift: read %d%%->%d%% theta %.2f->%.2f",
				*readPct, *readPct2, *theta, *theta2)
		})
	}

	res := openLoop{
		rate: *rate, duration: *duration, workers: *workers, queue: *queue, seed: *seed,
		op: func(id int, r *rng.Rand) error {
			t := targets[id%len(targets)]
			return retrier.Do(func() error { return phase.Load().Do(t, r) })
		},
	}.run()

	bs := budget.Stats()
	log.Printf("offered=%d completed=%d dropped=%d errors=%d retries=%d",
		res.offered, res.completed, res.dropped, res.errors, retrier.Retries())
	log.Printf("retry-budget tokens=%.1f/%.1f allowed=%d denied=%d",
		bs.Tokens, bs.Cap, bs.Allowed, bs.Denied)
	if len(clients) > 0 {
		var opens, probes, closes uint64
		for _, cl := range clients {
			st := cl.ResilienceStats()
			opens += st.Breaker.Opens
			probes += st.Breaker.Probes
			closes += st.Breaker.Closes
		}
		log.Printf("breaker opens=%d probes=%d closes=%d state=%s",
			opens, probes, closes, clients[0].ResilienceStats().BreakerState)
	}
	log.Printf("throughput=%.0f req/s goodput=%.0f req/s latency p50=%v p95=%v p99=%v max=%v",
		res.throughput, res.goodput, res.p50, res.p95, res.p99, res.max)
	if *minOps > 0 && res.completed < *minOps {
		log.Printf("FAIL: completed %d < min-ops %d", res.completed, *minOps)
		os.Exit(1)
	}
	if res.completed > 0 && res.errors == res.completed {
		log.Print("FAIL: every request errored")
		os.Exit(1)
	}
}
