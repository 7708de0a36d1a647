package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/panic-nic/panic/internal/core"
	"github.com/panic-nic/panic/internal/serve"
	"github.com/panic-nic/panic/internal/trace"
)

// runServe is `panicsim serve`: a long-lived control-and-ingest service.
// The NIC starts idle (no generated workload); clients POST trace batches
// and bounded streams, hot-reload tenant weights and the RMT program, and
// read /statz — all applied at -serve-quantum cycle barriers. See
// SERVICE.md for the API and operations runbook.
func runServe(freq, line float64, meshK, width, pipelines int, warmKeys, seed uint64) {
	cfg, tracer := buildPanicConfig(freq, line, meshK, width, pipelines, seed)
	// Serve mode always builds the weighted-LSTF scheduler so tenant
	// weights are hot-reloadable; without -tenant-weights every tenant
	// starts at weight 1 (which ranks identically to plain LSTF).
	if len(cfg.TenantWeights) == 0 {
		cfg.TenantWeights = make(map[uint16]uint64)
		for i := 0; i < *tenantsN; i++ {
			cfg.TenantWeights[uint16(i+1)] = 1
		}
	}
	ports := serve.NewIngestSources(cfg.Ports)
	nic := core.NewNIC(cfg, serve.AsEngineSources(ports))
	for k := uint64(0); k < warmKeys; k++ {
		nic.Cache.Warm(k, cfg.HostValueBytes)
	}

	srv := serve.New(serve.Config{BarrierCycles: *serveQuantum}, nic, tracer, ports)
	ln, err := net.Listen("tcp", *listenAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "listen %s: %v\n", *listenAddr, err)
		os.Exit(1)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Printf("panicsim serve: listening on http://%s (%d ports, quantum %d cycles)\n",
		ln.Addr(), cfg.Ports, *serveQuantum)

	srv.Start()
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	stopped := make(chan struct{})
	go func() { srv.Wait(); close(stopped) }()
	select {
	case err := <-httpErr:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "serve: %v\n", err)
			os.Exit(1)
		}
	case s := <-sig:
		fmt.Printf("panicsim serve: %v: draining (cap %s; signal again to stop now)\n", s, *drainTimeout)
	case <-stopped:
		// A client-initiated POST /drain ran to completion.
	}

	// Graceful drain: stop admitting (readiness goes 503), run barriers
	// until the admitted work has delivered or the caps hit.
	srv.BeginDrain()
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "panicsim serve: second signal: stopping without drain")
		srv.Stop()
	}()
	drained := make(chan struct{})
	go func() { srv.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(*drainTimeout):
		fmt.Fprintln(os.Stderr, "panicsim serve: drain timed out; stopping")
		srv.Stop()
		srv.Wait()
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)

	cycles := nic.Now()
	fmt.Printf("\npanicsim serve: stopped at cycle %d (%d barriers)\n\n", cycles, srv.Barrier())
	fmt.Print(nic.Summary(cycles))
	if len(cfg.Tenants) > 0 || len(cfg.TenantWeights) > 0 {
		fmt.Println()
		fmt.Print(nic.TenantReport())
	}
	if tracer != nil {
		dumpTrace(tracer)
	}
}

// dumpTrace writes the armed tracer's spans to -trace, exactly as a batch
// run does at exit.
func dumpTrace(tracer *trace.Tracer) {
	set := tracer.Set()
	f, err := os.Create(*tracePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "trace: %v\n", err)
		os.Exit(1)
	}
	werr := set.WriteChrome(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "trace: writing %s: %v\n", *tracePath, werr)
		os.Exit(1)
	}
	fmt.Printf("\ntrace: %d spans -> %s (load in https://ui.perfetto.dev)\n", len(set.Spans), *tracePath)
}
