// Command ppcc is the auto-pipelining PPC compiler: it reads a PPC source
// file, partitions the PPS into D pipeline stages, and reports (or dumps)
// the result.
//
// Usage:
//
//	ppcc [flags] file.ppc
//
//	-d N         pipelining degree (default 2)
//	-eps F       balance variance ε (default 1/16)
//	-tx MODE     packed | naive-unified | naive-interference
//	-ring KIND   nn | scratch
//	-budget N    explore: smallest degree meeting an N-instruction budget
//	-j N         worker goroutines for the -budget exploration: candidate
//	             degrees share one analysis and are cut concurrently
//	             (0 = one per CPU, 1 = sequential; the selected result is
//	             identical either way)
//	-ast         print the canonically formatted source and exit
//	-dump        print the realized stage IR
//	-verify N    run N iterations of zero-filled 48-byte packets through
//	             both the sequential program and the pipeline and compare
//	             traces
//	-serve[=N]   stream packets through the goroutine-per-stage host
//	             runtime and print its metrics: -serve=N serves N
//	             zero-filled 48-byte synthetic packets; plain -serve with
//	             -source serves the network-facing source until it is
//	             exhausted (or Ctrl-C); -serve=N with -source bounds the
//	             source at N packets (the int form needs `=` — a boolean
//	             flag never consumes the next argument)
//	-source SPEC network-facing source for -serve: udp://host:port,
//	             tcp://host:port, pcap://file[?pace=N&loop=N], or
//	             gen://ipv4[?seed=N&packets=N&flows=N&alpha=F&peak=N].
//	             On a clean end the captured stream is replayed through
//	             the degree-1 sequential oracle and the served trace must
//	             be byte-identical
//	-backend B   stage-execution backend for -serve: compiled (default,
//	             IR lowered once to slot-indexed closure programs) or
//	             interp (the reference interpreter)
//	-shards P    -serve replica width: stages without cross-flow state run
//	             as P parallel replicas behind a flow-hash dispatcher; the
//	             served trace stays byte-identical to the sequential order
//
// Observability of the -serve run (see DESIGN.md §8):
//
//	-trace FILE    write the run's per-stage span timeline as Chrome
//	               trace_event JSON (load at chrome://tracing), and print
//	               an ASCII rendering of the same timeline
//	-metrics ADDR  expose the live metrics registry over HTTP while the
//	               run is in flight (GET /metrics for JSON, /debug/vars
//	               for expvar) and print the final registry after
//	-obs-log DUR   emit a periodic progress line to stderr every DUR
//	               (for example -obs-log 500ms)
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"

	"repro"
	"repro/internal/ingest"
	"repro/internal/ppc"
)

// serveFlag is the bool-or-int -serve value: plain `-serve` (the boolean
// form, for use with -source) streams until the source is exhausted;
// `-serve=N` bounds the stream at N packets — synthetic ones without
// -source, a Limit on the source with it. The int form requires `=`
// because boolean flags never consume the next argument.
type serveFlag struct {
	set bool
	n   int
}

func (s *serveFlag) String() string {
	if !s.set {
		return "0"
	}
	return strconv.Itoa(s.n)
}

func (s *serveFlag) Set(v string) error {
	if b, err := strconv.ParseBool(v); err == nil {
		s.set = b
		s.n = 0
		return nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return fmt.Errorf("want a packet count or nothing, got %q", v)
	}
	s.set, s.n = true, n
	return nil
}

func (s *serveFlag) IsBoolFlag() bool { return true }

func main() {
	degree := flag.Int("d", 2, "pipelining degree")
	eps := flag.Float64("eps", 1.0/16.0, "balance variance")
	txMode := flag.String("tx", "packed", "transmission mode: packed|naive-unified|naive-interference")
	ring := flag.String("ring", "nn", "inter-stage ring: nn|scratch")
	budget := flag.Int64("budget", 0, "explore: pick the smallest degree meeting this per-packet instruction budget (overrides -d)")
	jobs := flag.Int("j", 0, "worker goroutines for -budget exploration (0 = one per CPU, 1 = sequential)")
	dump := flag.Bool("dump", false, "dump realized stage IR")
	ast := flag.Bool("ast", false, "print the canonically formatted source and exit")
	verify := flag.Int("verify", 0, "verify behaviour over N iterations")
	var serve serveFlag
	flag.Var(&serve, "serve", "stream packets through the host runtime: -serve=N for N synthetic packets, plain -serve with -source to serve until the source is exhausted")
	source := flag.String("source", "", "network-facing packet source for -serve: udp://host:port, tcp://host:port, pcap://file[?pace=N&loop=N], gen://ipv4[?seed=N&packets=N...]")
	backendName := flag.String("backend", "compiled", "-serve stage-execution backend: compiled|interp")
	shards := flag.Int("shards", 1, "-serve pipeline replica width (flow-hash sharding)")
	traceOut := flag.String("trace", "", "write the -serve span timeline to this file as Chrome trace_event JSON")
	metricsAddr := flag.String("metrics", "", "expose the -serve metrics registry over HTTP on this address (e.g. :8080)")
	obsLog := flag.Duration("obs-log", 0, "emit a periodic -serve progress line to stderr at this interval")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ppcc [flags] file.ppc")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *ast {
		unit, err := ppc.Parse(string(src))
		if err != nil {
			fatal(err)
		}
		fmt.Print(ppc.Format(unit))
		return
	}
	prog, err := repro.Compile(string(src))
	if err != nil {
		fatal(err)
	}

	opts := []repro.Option{repro.WithStages(*degree), repro.WithEpsilon(*eps)}
	switch *txMode {
	case "packed":
		opts = append(opts, repro.WithTxMode(repro.TxPacked))
	case "naive-unified":
		opts = append(opts, repro.WithTxMode(repro.TxNaiveUnified))
	case "naive-interference":
		opts = append(opts, repro.WithTxMode(repro.TxNaiveInterference))
	default:
		fatal(fmt.Errorf("unknown -tx mode %q", *txMode))
	}
	switch *ring {
	case "nn":
		opts = append(opts, repro.WithRing(repro.NNRing, 0))
	case "scratch":
		opts = append(opts, repro.WithRing(repro.ScratchRing, 0))
	default:
		fatal(fmt.Errorf("unknown -ring kind %q", *ring))
	}

	var pipe *repro.Pipeline
	if *budget > 0 {
		a, err := repro.Analyze(prog, opts...)
		if err != nil {
			fatal(err)
		}
		ex, err := a.Explore(repro.WithBudget(*budget), repro.WithWorkers(*jobs))
		if err != nil {
			fatal(err)
		}
		pipe = ex.Pipeline
		*degree = ex.Degree
		status := "meets"
		if !ex.Met {
			status = "cannot meet"
		}
		fmt.Printf("explore: %d PE(s) %s the %d-instruction budget\n", ex.Degree, status, *budget)
		for _, c := range ex.Candidates {
			fmt.Printf("  degree %2d: longest stage %4d\n", c.Degree, c.LongestStage)
		}
	} else {
		pipe, err = repro.Partition(prog, opts...)
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("pps %s: %d stages (tx=%s, ring=%s, eps=%.4f)\n",
		prog.Name, *degree, *txMode, *ring, *eps)
	fmt.Print(pipe.Report())

	if *dump {
		for _, s := range pipe.Stages() {
			fmt.Println()
			fmt.Print(s.Func.String())
		}
	}
	if *verify > 0 {
		packets := testPackets(*verify)
		oracle, err := repro.Partition(prog, repro.WithStages(1))
		if err != nil {
			fatal(err)
		}
		seq, err := oracle.Run(context.Background(), repro.NewWorld(packets), repro.WithIterations(*verify))
		if err != nil {
			fatal(err)
		}
		got, err := pipe.Run(context.Background(), repro.NewWorld(packets))
		if err != nil {
			fatal(err)
		}
		if diff := repro.TraceEqual(seq, got); diff != "" {
			fatal(fmt.Errorf("verification FAILED: %s", diff))
		}
		fmt.Printf("verification passed: %d iterations, %d events\n", *verify, len(seq))
	}
	if serve.set {
		var backend repro.Backend
		switch *backendName {
		case "compiled":
			backend = repro.BackendCompiled
		case "interp":
			backend = repro.BackendInterp
		default:
			fatal(fmt.Errorf("unknown -backend %q (want compiled|interp)", *backendName))
		}
		obs := &repro.Observer{}
		var reg *repro.Registry
		var tr *repro.Tracer
		if *traceOut != "" {
			tr = repro.NewTracer(0)
			obs.Tracer = tr
		}
		if *metricsAddr != "" {
			reg = repro.NewRegistry()
			obs.Registry = reg
			reg.Publish("pipeline")
			mux := http.NewServeMux()
			mux.Handle("/metrics", reg.Handler())
			mux.Handle("/debug/vars", expvar.Handler())
			ln, err := net.Listen("tcp", *metricsAddr)
			if err != nil {
				fatal(err)
			}
			defer ln.Close()
			go func() { _ = http.Serve(ln, mux) }()
			fmt.Printf("metrics: http://%s/metrics (expvar at /debug/vars)\n", ln.Addr())
		}
		if *obsLog > 0 {
			obs.LogEvery = *obsLog
			obs.Logf = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		serveOpts := []repro.Option{repro.WithObserver(obs), repro.WithBackend(backend)}
		if *shards > 1 {
			serveOpts = append(serveOpts,
				repro.WithShards(*shards), repro.WithShardKey(repro.FlowKey))
		}
		var m *repro.Metrics
		if *source != "" {
			// Network-facing serve: open the spec, bound it with the packet
			// budget if one was given, and tee off everything the pipeline
			// sees so the run can be checked against the sequential oracle
			// afterwards. Ctrl-C cancels the serve cleanly.
			base, err := repro.OpenSource(*source)
			if err != nil {
				fatal(err)
			}
			defer base.Close()
			var bs repro.BatchSource = base
			if serve.n > 0 {
				bs = ingest.Limit(bs, int64(serve.n))
			}
			tee := ingest.Tee(bs)
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
			defer stop()
			fmt.Printf("serving %s (Ctrl-C to stop)\n", *source)
			m, err = pipe.Serve(ctx, nil, append(serveOpts, repro.WithSource(tee))...)
			interrupted := errors.Is(err, context.Canceled)
			if err != nil && !interrupted {
				fatal(err)
			}
			if m != nil {
				fmt.Print(m)
			}
			if interrupted {
				fmt.Println("interrupted: skipping the oracle check (partial stream)")
			} else {
				// The oracle check: replay exactly what arrived through the
				// degree-1 sequential program and demand a byte-identical
				// trace.
				got := tee.Captured()
				oracle, err := repro.Partition(prog, repro.WithStages(1))
				if err != nil {
					fatal(err)
				}
				seq, err := oracle.Run(context.Background(), repro.NewWorld(got), repro.WithIterations(len(got)))
				if err != nil {
					fatal(err)
				}
				if diff := repro.TraceEqual(seq, m.Trace); diff != "" {
					fatal(fmt.Errorf("served trace diverged from the sequential oracle: %s", diff))
				}
				fmt.Printf("oracle check passed: %d packets, %d events byte-identical\n", len(got), len(seq))
			}
		} else {
			if serve.n <= 0 {
				fatal(fmt.Errorf("plain -serve needs -source (or give a synthetic packet count: -serve=N)"))
			}
			m, err = pipe.Serve(context.Background(), repro.PacketSource(testPackets(serve.n)), serveOpts...)
			if err != nil {
				fatal(err)
			}
			fmt.Print(m)
		}
		if tr != nil {
			spans := tr.Spans()
			f, err := os.Create(*traceOut)
			if err != nil {
				fatal(err)
			}
			if err := repro.WriteChromeTrace(f, spans); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("trace: %d spans -> %s\n", len(spans), *traceOut)
			fmt.Print(repro.Timeline(spans, 72))
		}
		if reg != nil {
			fmt.Print(reg)
		}
	}
}

func testPackets(n int) [][]byte {
	packets := make([][]byte, n)
	for i := range packets {
		packets[i] = make([]byte, 48)
		packets[i][0] = byte(i)
	}
	return packets
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ppcc:", err)
	os.Exit(1)
}
