// Command spbbench regenerates every table and figure of the paper's
// evaluation (Section 6) on synthetic stand-ins for its datasets. Each
// subcommand prints the same rows or series the paper reports; DESIGN.md §4
// maps experiment ids to the modules under test and EXPERIMENTS.md records
// paper-vs-measured values. Where an experiment runs several access methods
// or SPB-tree variants on the same queries, their answers must agree: the
// first disagreement stops the run with exit status 1.
//
// Usage:
//
//	spbbench [flags] <experiment>...
//	spbbench -n 20000 -q 100 all
//
// Experiments: table2 table4 table6 table7 fig9 fig10 fig11 fig12
// fig13 fig14 fig15 fig16 fig17 fig18 forest all
package main

import (
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"
)

func main() {
	var cfg config
	var debugAddr string
	flag.IntVar(&cfg.n, "n", 10000, "dataset cardinality (the paper uses 112K-1M)")
	flag.IntVar(&cfg.queries, "q", 50, "measured queries per point (the paper uses 500)")
	flag.Int64Var(&cfg.seed, "seed", 1, "dataset and pivot-selection seed")
	flag.StringVar(&debugAddr, "debugaddr", "", "serve /debug/vars and /debug/pprof on this address while experiments run")
	flag.Parse()
	cfg.out = os.Stdout
	if debugAddr != "" {
		ln, err := startDebugServer(debugAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "debug endpoints on http://%s\n", ln.Addr())
	}

	if flag.NArg() == 0 {
		flag.Usage()
		fmt.Fprintln(os.Stderr, "\nexperiments: table2 table4 table6 table7 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18 forest all")
		os.Exit(2)
	}

	experiments := map[string]func(config) error{
		"table2": table2,
		"table4": table4,
		"table6": table6,
		"table7": table7,
		"fig9":   fig9,
		"fig10":  fig10,
		"fig11":  fig11,
		"fig12":  fig12,
		"fig13":  fig13,
		"fig14":  fig14,
		"fig15":  fig15,
		"fig16":  fig16,
		"fig17":  fig17,
		"fig18":  fig18,
		"forest": forestExp,
	}
	order := []string{"table2", "table4", "fig9", "fig10", "fig11",
		"table6", "table7", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "forest"}

	var names []string
	for _, arg := range flag.Args() {
		if arg == "all" {
			names = append(names, order...)
			continue
		}
		if _, ok := experiments[arg]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", arg)
			os.Exit(2)
		}
		names = append(names, arg)
	}

	for _, name := range names {
		start := time.Now()
		if err := experiments[name](cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Fprintf(cfg.out, "[%s done in %v]\n", name, time.Since(start).Round(time.Millisecond))
	}
}

// startDebugServer serves expvar (/debug/vars) and pprof (/debug/pprof/) on
// addr for the duration of the run, so long experiments can be profiled and
// their aggregate metrics scraped live.
func startDebugServer(addr string) (net.Listener, error) {
	mux := http.NewServeMux()
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debug listener: %w", err)
	}
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	return ln, nil
}
