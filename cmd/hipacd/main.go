// Command hipacd runs a HiPAC active-DBMS server: an engine (with
// optional durability directory) exposed over TCP to application
// programs speaking the ipc protocol (see internal/client for the Go
// client library and cmd/hipac-cli for an interactive shell).
//
// Usage:
//
//	hipacd [-addr 127.0.0.1:4815] [-dir /var/lib/hipac] [-nosync]
//	       [-checkpoint-interval 0] [-checkpoint-after-bytes 0]
//	       [-metrics :9090]
//	       [-repl-listen 127.0.0.1:4816] [-replica-of HOST:4816]
//
// With -metrics, an HTTP listener serves the engine's counters and
// latency histograms in Prometheus text format at /metrics.
//
// With -repl-listen (and no -replica-of), the node additionally ships
// its WAL to read replicas on that address. With -replica-of, the
// node runs as a read replica of the named primary: it bootstraps
// from the primary's snapshot chain into -dir, tails its WAL stream,
// and serves read-only traffic on -addr until `hipac-cli promote`
// recovers it into a normal writable server.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/repl"
	"repro/internal/server"
)

// config is the daemon's engine settings, shared by the primary path
// and a promoted replica so promotion cannot drop one.
type config struct {
	nosync    bool
	ckptEvery time.Duration
	ckptBytes uint64
}

// engineOptions returns the engine options for a store in dir.
func (c config) engineOptions(dir string) core.Options {
	return core.Options{Dir: dir, NoSync: c.nosync,
		CheckpointInterval: c.ckptEvery, CheckpointAfterBytes: c.ckptBytes}
}

func main() {
	var cfg config
	addr := flag.String("addr", "127.0.0.1:4815", "listen address")
	dir := flag.String("dir", "", "durability directory (empty: in-memory)")
	flag.BoolVar(&cfg.nosync, "nosync", false, "disable fsync on the write-ahead log")
	flag.DurationVar(&cfg.ckptEvery, "checkpoint-interval", 0,
		"run a fuzzy checkpoint (snapshot + WAL truncation, no commit quiesce) at this period (0: disabled)")
	flag.Uint64Var(&cfg.ckptBytes, "checkpoint-after-bytes", 0,
		"also checkpoint whenever the WAL grows this many bytes past the last checkpoint (0: disabled)")
	metrics := flag.String("metrics", "", "Prometheus /metrics listen address (empty: disabled)")
	replListen := flag.String("repl-listen", "",
		"WAL shipping listen address for read replicas (empty: replication disabled)")
	replicaOf := flag.String("replica-of", "",
		"run as a read replica of the primary's -repl-listen address (requires -dir)")
	flag.Parse()

	if *replicaOf != "" {
		runReplica(*addr, *dir, *replicaOf, *metrics, cfg)
		return
	}

	eng, err := core.Open(cfg.engineOptions(*dir))
	if err != nil {
		log.Fatalf("hipacd: open engine: %v", err)
	}
	srv := server.New(eng)

	var prim *repl.Primary
	if *replListen != "" {
		if *dir == "" {
			log.Fatalf("hipacd: -repl-listen needs -dir (an in-memory store has no WAL to ship)")
		}
		prim = repl.NewPrimary(eng.Store, eng.Obs.Metrics())
		srv.SetReplStatus(prim.Status)
		go func() {
			if err := prim.ListenAndServe(*replListen); err != nil {
				log.Printf("hipacd: repl listener: %v", err)
			}
		}()
		fmt.Printf("hipacd: shipping WAL on %s\n", *replListen)
	}

	msrv := serveMetrics(*metrics, func(w http.ResponseWriter) error {
		if err := eng.WritePrometheus(w); err != nil {
			return err
		}
		if prim != nil {
			return prim.WritePrometheus(w)
		}
		return nil
	})

	// The signal goroutine only closes the server; ListenAndServe then
	// returns nil (close is flagged before the listener shuts), and
	// main — never the goroutine — tears down the engine and exits, so
	// a SIGTERM cannot race eng.Close with process exit.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		log.Printf("hipacd: shutting down")
		srv.Close()
	}()

	fmt.Printf("hipacd: serving on %s (dir=%q)\n", *addr, *dir)
	serveErr := srv.ListenAndServe(*addr)
	if prim != nil {
		prim.Close()
	}
	if msrv != nil {
		msrv.Close()
	}
	if err := eng.Close(); err != nil {
		log.Printf("hipacd: close: %v", err)
	}
	if serveErr != nil {
		log.Fatalf("hipacd: %v", serveErr)
	}
}

// runReplica serves read-only traffic from a replica of the primary
// until promoted: then it stops the replica server, reopens the data
// directory as a full engine, and serves writable traffic on the same
// address with the same engine settings and metrics listener a node
// started as a primary would have.
func runReplica(addr, dir, primaryAddr, metrics string, cfg config) {
	if dir == "" {
		log.Fatalf("hipacd: -replica-of needs -dir")
	}
	rep, err := repl.Open(repl.Options{Dir: dir, PrimaryAddr: primaryAddr,
		NoSync: cfg.nosync, CheckpointAfterBytes: cfg.ckptBytes})
	if err != nil {
		log.Fatalf("hipacd: open replica: %v", err)
	}

	var promotedDir atomic.Value // string: set once Promote succeeds
	readSrv := server.NewReplica(rep, func() (uint64, error) {
		applied := uint64(rep.AppliedLSN())
		d, err := rep.Promote()
		if err != nil {
			return 0, err
		}
		promotedDir.Store(d)
		return applied, nil
	})

	msrv := serveMetrics(metrics, func(w http.ResponseWriter) error {
		return rep.WritePrometheus(w)
	})

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sigCh:
			log.Printf("hipacd: shutting down")
		case <-readSrv.Promoted():
			log.Printf("hipacd: promoted; restarting as primary")
		}
		readSrv.Close()
	}()

	fmt.Printf("hipacd: replica of %s serving reads on %s (dir=%q)\n", primaryAddr, addr, dir)
	serveErr := readSrv.ListenAndServe(addr)
	if msrv != nil {
		msrv.Close()
	}
	d, wasPromoted := promotedDir.Load().(string)
	if !wasPromoted {
		rep.Close()
		if serveErr != nil {
			log.Fatalf("hipacd: %v", serveErr)
		}
		return
	}

	// Promotion: the replica store is closed and flushed; reopen it as
	// a writable engine on the same address. The brief listener gap is
	// the cost of the manual-failover design.
	eng, err := core.Open(cfg.engineOptions(d))
	if err != nil {
		log.Fatalf("hipacd: promote: open engine on %s: %v", d, err)
	}
	srv := server.New(eng)
	msrv = serveMetrics(metrics, func(w http.ResponseWriter) error {
		return eng.WritePrometheus(w)
	})
	go func() {
		<-sigCh
		log.Printf("hipacd: shutting down")
		srv.Close()
	}()
	fmt.Printf("hipacd: promoted; serving writes on %s (dir=%q)\n", addr, d)
	serveErr = srv.ListenAndServe(addr)
	if msrv != nil {
		msrv.Close()
	}
	if err := eng.Close(); err != nil {
		log.Printf("hipacd: close: %v", err)
	}
	if serveErr != nil {
		log.Fatalf("hipacd: %v", serveErr)
	}
}

// serveMetrics starts the Prometheus listener when addr is set.
func serveMetrics(addr string, write func(http.ResponseWriter) error) *http.Server {
	if addr == "" {
		return nil
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := write(w); err != nil {
			log.Printf("hipacd: metrics: %v", err)
		}
	})
	msrv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := msrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Printf("hipacd: metrics listener: %v", err)
		}
	}()
	fmt.Printf("hipacd: metrics on http://%s/metrics\n", addr)
	return msrv
}
