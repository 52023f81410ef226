// Command perfbench is the item-path benchmark of the SenSocial
// reproduction. It drives a whole in-process deployment (netsim fabric,
// MQTT broker, server middleware, devices) on the manual clock with
// zero-latency links, closes the loop in virtual time, checks every output
// against a computation made apart from the program, and prints the
// end-to-end metrics as one JSON line. With --trace 1 it instead prints the
// per-layer metrics, measured by replaying each layer alone on the run's
// own captured inputs. See README.md for the workloads and the metric map.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fleet-uplink --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --steady 10 --seconds 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"repro/internal/sim"
)

// workload is one traffic mix on its own deployment.
type workload interface {
	// setup builds and provisions the deployment; its wall time is setup_s.
	setup() error
	// warmup runs untimed rounds so caches fill and lazy set-up finishes.
	warmup() error
	// round runs one whole closed-loop round and returns the items it
	// caused. It returns only after each of them reached the item hook or
	// was counted lost.
	round() (int64, error)
	// lost counts items the program is known to have lost since setup.
	lost() int64
	// check compares the outputs with the benchmark's own computation and
	// returns one line per failed check. It may close the deployment.
	check() []string
	// layers measures the workload's layer replays and in-run layer
	// counters into m.
	layers(l *spanLog, m metrics) error
	sim() *sim.Simulation
	close()
}

// workloadKind builds a workload's generated inputs from the seed.
type workloadKind struct {
	build func(seed int64, rec *recorder, dir string) workload
	// roundsPerSecond is the round rate of the reference host (see
	// README.md). A run measures seconds × roundsPerSecond whole rounds,
	// so every run of a workload does the same work: the deployments keep
	// state that grows with the items processed (persisted items, recorded
	// actions), and a run cut by wall time would charge a faster program
	// with a larger state.
	roundsPerSecond float64
	// procs is the workload's GOMAXPROCS, capped at nproc. geo-multicast
	// runs single-threaded: its multicast refreshes serialize on locks, and
	// with two threads a vCPU the hypervisor steals while holding one
	// stalls the other, which spread ten runs by up to 45 % on the shared
	// reference host. The other two spread less with two threads than
	// with one.
	procs int
}

var newWorkload = map[string]workloadKind{
	"fleet-uplink":  {newFleet, 1.2, 2},
	"osn-trigger":   {newOSNTrigger, 27, 2},
	"geo-multicast": {newGeoMulticast, 5.7, 1},
}

// workloadNames is the run order of the steadiness command.
var workloadNames = []string{"fleet-uplink", "osn-trigger", "geo-multicast"}

// setupRepeats is how many times a run builds its deployment; setup_s is
// the median, and the last build is the one measured. Set-up of the pooled
// fleet takes about 20 ms, so one build alone is mostly host noise.
const setupRepeats = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "fleet-uplink, osn-trigger or geo-multicast")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds on the reference host; sets the rounds measured")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	steady := flag.Int("steady", 0, "run every workload this many times, alternating, and print each end-to-end metric's spread")
	procs := flag.Int("gomaxprocs", 0, "GOMAXPROCS of the run, at most nproc; 0 takes the workload's own")
	flag.Parse()

	if *procs < 0 || *procs > runtime.NumCPU() {
		fmt.Fprintf(os.Stderr, "perfbench: --gomaxprocs %d outside 0..nproc (%d)\n", *procs, runtime.NumCPU())
		os.Exit(2)
	}
	if *steady > 0 {
		if err := runSteady(*steady, *seconds, *seed, *procs); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if _, ok := newWorkload[*workloadName]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workloadName, workloadNames)
		os.Exit(2)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	if *procs == 0 {
		*procs = min(newWorkload[*workloadName].procs, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(*procs)
	res, err := run(*workloadName, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// scratchDir is where runs keep durable-registry journals and span dumps,
// inside the checkout.
func scratchDir() (string, error) {
	dir, err := filepath.Abs(filepath.Join(".bench_build", "run-"+strconv.Itoa(os.Getpid())))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("scratch dir: %w", err)
	}
	return dir, nil
}

// windowNs is the least wall time one measurement window spans. A phase
// is cut into windows at round boundaries; the timing metrics are medians
// over windows, so a short burst of host interference moves one window,
// not the run's figure.
const windowNs = int64(500 * time.Millisecond)

// window is one stretch of whole rounds inside a phase.
type window struct {
	delivered int64
	wallNs    int64
	cpuNs     int64
	steal     int64   // host CPU ticks the hypervisor stole meanwhile
	p50, p90  float64 // item latency quantiles, ms
}

// phase is one timed stretch of closed-loop rounds.
type phase struct {
	rounds    int
	items     int64 // items caused
	delivered int64 // items that reached the hook
	lost      int64
	wallNs    int64
	cpuNs     int64
	windows   []window
	// goroutines is the process's goroutine count at the end of the phase.
	goroutines int
	before     map[string]float64
	after      map[string]float64
	msBefore   runtime.MemStats
	msAfter    runtime.MemStats
}

func (p *phase) delta(name string) float64 { return p.after[name] - p.before[name] }

func (p *phase) cpuPerItemUs() float64 {
	return float64(p.cpuNs) / 1e3 / float64(p.delivered)
}

// windowMedian is the median of f over the calmer window of each
// consecutive pair: the one during which the hypervisor stole less CPU time
// from the machine. On a shared host, steal comes in bursts that slow every
// wall-time figure of the windows they hit; pairing keeps the selection
// spread evenly over the run, whose later rounds can run on a larger state.
func (p *phase) windowMedian(f func(w window) float64) float64 {
	var v []float64
	for i := 0; i < len(p.windows); i += 2 {
		w := p.windows[i]
		if i+1 < len(p.windows) && p.windows[i+1].steal < w.steal {
			w = p.windows[i+1]
		}
		v = append(v, f(w))
	}
	return median(v)
}

// measure runs the given number of whole rounds, or fewer if capNs of wall
// time runs out first.
func measure(w workload, rec *recorder, rounds int, capNs int64) (*phase, error) {
	p := &phase{}
	reg := w.sim().Metrics
	runtime.GC()
	p.before = counters(reg)
	p.msBefore = memStats()
	lost0 := w.lost()
	del0 := rec.delivered.Load()
	rec.on.Store(true)
	cpu0, t0 := cpuNanos(), nanotime()
	wCPU, wT, wDel, wSteal := cpu0, t0, del0, stealTicks()
	for {
		n, err := w.round()
		if err != nil {
			rec.on.Store(false)
			return nil, err
		}
		p.items += n
		p.rounds++
		now := nanotime()
		done := p.rounds >= rounds || now-t0 >= capNs
		if done && p.rounds < rounds {
			fmt.Fprintf(os.Stderr, "perfbench: wall-time cap reached after %d of %d rounds\n", p.rounds, rounds)
		}
		if now-wT >= windowNs || done {
			cpu, del, steal := cpuNanos(), rec.delivered.Load(), stealTicks()
			lat := rec.latencies()
			win := window{delivered: del - wDel, wallNs: now - wT, cpuNs: cpu - wCPU, steal: steal - wSteal,
				p50: quantile(lat, 0.5), p90: quantile(lat, 0.9)}
			// A short tail window is too small to stand on its own.
			if now-wT >= windowNs || len(p.windows) == 0 {
				p.windows = append(p.windows, win)
			}
			wCPU, wT, wDel, wSteal = cpu, now, del, steal
		}
		if done {
			break
		}
	}
	p.wallNs = nanotime() - t0
	p.cpuNs = cpuNanos() - cpu0
	rec.on.Store(false)
	p.delivered = rec.delivered.Load() - del0
	p.lost = w.lost() - lost0
	p.goroutines = runtime.NumGoroutine()
	p.msAfter = memStats()
	p.after = counters(reg)
	return p, nil
}

func run(name string, seed int64, seconds float64, trace bool) (*result, error) {
	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	kind := newWorkload[name]
	rounds := max(1, int(seconds*kind.roundsPerSecond+0.5))
	capNs := int64(3 * seconds * 1e9)
	var rec *recorder
	var w workload
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		rec = newRecorder()
		w = kind.build(seed, rec, filepath.Join(dir, "setup-"+strconv.Itoa(i)))
		runtime.GC()
		t0 := nanotime()
		if err := w.setup(); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: setup: %w", name, err)
		}
		setups = append(setups, float64(nanotime()-t0)/1e9)
	}
	defer w.close()
	if err := w.warmup(); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", name, err)
	}

	res := &result{Metrics: metrics{}}
	var timed []*phase
	var spans *spanLog
	if trace {
		// Two halves on the same deployment: untraced, then traced. Their
		// CPU per item gives the tracing overhead; the traced half gives
		// the layer counters.
		half := max(1, rounds/2)
		plain, err := measure(w, rec, half, capNs/2)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		spans = &spanLog{}
		rec.spans.Store(spans)
		traced, err := measure(w, rec, half, capNs/2)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rec.spans.Store(nil)
		timed = []*phase{plain, traced}
		res.Metrics.set("trace.overhead_pct", (traced.cpuPerItemUs()/plain.cpuPerItemUs()-1)*100, "%")
	} else {
		p, err := measure(w, rec, rounds, capNs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		timed = []*phase{p}
	}
	last := timed[len(timed)-1]

	var heap runtime.MemStats
	if !trace {
		runtime.GC()
		heap = memStats()
	}

	for _, p := range timed {
		res.Attempted += p.items
		res.Failed += p.lost
	}
	if trace {
		if err := w.layers(spans, res.Metrics); err != nil {
			return nil, fmt.Errorf("%s: layers: %w", name, err)
		}
		layerCounters(last, res.Metrics)
	}

	failures := w.check()
	for _, f := range failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %s\n", name, f)
	}
	res.Failed += int64(len(failures))
	res.Correct = len(failures) == 0 && res.Failed == 0

	if trace {
		if err := writeSpans(spans, name); err != nil {
			return nil, err
		}
		printLayerTable(name, res.Metrics)
		return res, nil
	}
	p := last
	res.Metrics.set("setup_s", median(setups), "s")
	res.Metrics.set("items_per_s", p.windowMedian(func(w window) float64 {
		return float64(w.delivered) / (float64(w.wallNs) / 1e9)
	}), "items/s")
	res.Metrics.set("cpu_us_per_item", p.windowMedian(func(w window) float64 {
		return float64(w.cpuNs) / 1e3 / float64(w.delivered)
	}), "us")
	res.Metrics.set("item_p50_ms", p.windowMedian(func(w window) float64 { return w.p50 }), "ms")
	res.Metrics.set("item_p90_ms", p.windowMedian(func(w window) float64 { return w.p90 }), "ms")
	res.Metrics.set("heap_mb", float64(heap.HeapAlloc)/(1<<20), "MiB")
	res.Metrics.set("wire_bytes_per_item", p.delta("sensocial_netsim_tx_bytes_total")/float64(p.delivered), "B")
	fmt.Printf("%s: seed %d, %d rounds, %d items in %.2f s, %d windows; items/s per window:",
		name, seed, p.rounds, p.delivered, float64(p.wallNs)/1e9, len(p.windows))
	for _, w := range p.windows {
		fmt.Printf(" %.0f/%d", float64(w.delivered)/(float64(w.wallNs)/1e9), w.steal)
	}
	fmt.Println()
	return res, nil
}

// writeSpans dumps the traced run's spans under .bench_build/trace.
func writeSpans(l *spanLog, name string) error {
	dir := filepath.Join(".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span dir: %w", err)
	}
	path := filepath.Join(dir, name+".jsonl")
	if err := l.write(path); err != nil {
		return err
	}
	fmt.Printf("%d spans written to %s\n", len(l.spans), path)
	return nil
}

// layerCounters derives the counter-based per-layer metrics from the
// traced phase's registry deltas.
func layerCounters(p *phase, m metrics) {
	items := float64(p.delivered)
	published := p.delta("sensocial_mqtt_published_total")
	m.set("mqtt.published", published, "count")
	m.set("mqtt.delivered", p.delta("sensocial_mqtt_delivered_total"), "count")
	m.set("mqtt.fanout_dropped", p.delta("sensocial_mqtt_fanout_dropped_total"), "count")
	routes := published + p.delta("sensocial_trigger_sent_total")
	m.set("mqtt.match_nodes_per_publish", p.delta("sensocial_mqtt_match_nodes_total")/math.Max(routes, 1), "count")
	m.set("netsim.tx_bytes", p.delta("sensocial_netsim_tx_bytes_total"), "B")
	m.set("ingest.enqueued", p.delta("sensocial_ingest_enqueued_total"), "count")
	m.set("ingest.processed", p.delta("sensocial_ingest_processed_total"), "count")
	m.set("ingest.dropped", p.delta("sensocial_ingest_dropped_total"), "count")
	m.set("server.location_writes", p.delta("sensocial_context_location_writes_total"), "count")
	m.set("server.location_skips", p.delta("sensocial_context_location_skips_total"), "count")
	m.set("server.delivered", p.delta("sensocial_delivery_published_total"), "count")
	m.set("server.persisted", p.delta("sensocial_delivery_persisted_total"), "count")
	m.set("server.filter_rejected", p.delta("sensocial_filter_rejected_total"), "count")
	refreshes := p.delta("sensocial_multicast_refreshes_total")
	changes := p.delta("sensocial_trigger_sent_total{kind=config}") + p.delta("sensocial_trigger_sent_total{kind=remove}")
	m.set("multicast.refreshes", refreshes, "count")
	m.set("multicast.member_changes", changes, "count")
	m.set("multicast.changes_per_refresh", changes/math.Max(refreshes, 1), "ratio")
	m.set("wal.records", p.delta("sensocial_wal_records_total"), "count")
	m.set("wal.bytes_per_item", p.delta("sensocial_wal_bytes_total")/items, "B")
	m.set("wal.fsyncs", p.delta("sensocial_wal_fsyncs_total"), "count")
	m.set("osn.triggers_sent", p.delta("sensocial_trigger_sent_total{kind=sense}"), "count")
	m.set("device.samples", p.delta("sensocial_device_samples_total"), "count")
	m.set("device.classifications", p.delta("sensocial_device_classifications_total"), "count")
	m.set("device.tx_bytes", p.delta("sensocial_device_tx_bytes_total"), "B")
	devices := p.after["sensocial_sim_devices"]
	m.set("mobile.goroutines_per_device", float64(p.goroutines)/math.Max(devices, 1), "ratio")
	m.set("runtime.gc_cycles", float64(p.msAfter.NumGC-p.msBefore.NumGC), "count")
	m.set("runtime.gc_pause_ms", float64(p.msAfter.PauseTotalNs-p.msBefore.PauseTotalNs)/1e6, "ms")
	m.set("runtime.alloc_bytes_per_item", float64(p.msAfter.TotalAlloc-p.msBefore.TotalAlloc)/items, "B")
	m.set("runtime.mallocs_per_item", float64(p.msAfter.Mallocs-p.msBefore.Mallocs)/items, "count")
	m.set("trace.cpu_us_per_item", p.cpuPerItemUs(), "us")
	// The replayed layers an item passes through, summed per item, beside
	// the measured CPU per item of the traced phase.
	sum := (m["core.encode_ns"].Value + m["netsim.write_ns"].Value + m["mqtt.route_ns"].Value +
		m["core.decode_ns"].Value + m["ingest.ns_per_item"].Value) / 1e3
	sum += m["classify.window_us"].Value * p.delta("sensocial_device_classifications_total") / items
	m.set("trace.replay_sum_us_per_item", sum, "us")
}

// layerMap names, for each per-layer metric prefix, the end-to-end metric
// it should move and the workload where it dominates / stays flat.
var layerMap = []struct{ prefix, moves, where string }{
	{"sim.", "items_per_s, item_p50_ms", "fleet-uplink / geo-multicast"},
	{"vclock.", "items_per_s, item_p50_ms", "fleet-uplink / geo-multicast"},
	{"core.", "cpu_us_per_item, items_per_s, wire_bytes_per_item", "fleet-uplink / geo-multicast"},
	{"netsim.", "cpu_us_per_item, wire_bytes_per_item", "fleet-uplink / geo-multicast"},
	{"mqtt.", "items_per_s, item_p90_ms", "route: fleet-uplink; fan-out: osn-trigger; ack wait: geo-multicast"},
	{"ingest.", "items_per_s, item_p90_ms", "fleet-uplink / geo-multicast"},
	{"server.", "cpu_us_per_item", "geo-multicast / fleet-uplink"},
	{"multicast.", "cpu_us_per_item, items_per_s", "geo-multicast / both others"},
	{"docstore.", "cpu_us_per_item, items_per_s", "geo-multicast, osn-trigger / fleet-uplink"},
	{"wal.", "cpu_us_per_item, item_p90_ms", "geo-multicast / both others"},
	{"osn.", "item_p50_ms", "osn-trigger / both others"},
	{"device.", "cpu_us_per_item, heap_mb, setup_s", "osn-trigger / fleet-uplink"},
	{"classify.", "cpu_us_per_item, heap_mb, setup_s", "osn-trigger / fleet-uplink"},
	{"mobile.", "cpu_us_per_item, heap_mb, setup_s", "osn-trigger / fleet-uplink"},
	{"runtime.", "cpu_us_per_item, heap_mb", "all"},
	{"trace.", "none", "all"},
}

// printLayerTable prints every per-layer metric with the end-to-end metric
// and workload it should move.
func printLayerTable(workload string, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("per-layer metrics, workload %s\n", workload)
	fmt.Printf("%-34s %14s %-8s %-50s %s\n", "metric", "value", "unit", "should move", "dominant in / flat in")
	for _, n := range names {
		moves, where := "", ""
		for _, e := range layerMap {
			if len(n) >= len(e.prefix) && n[:len(e.prefix)] == e.prefix {
				moves, where = e.moves, e.where
			}
		}
		fmt.Printf("%-34s %14.4f %-8s %-50s %s\n", n, m[n].Value, m[n].Unit, moves, where)
	}
	fmt.Printf("replayed layer sum %.2f us/item vs cpu_us_per_item %.2f us (traced phase); tracing overhead %.2f%%\n",
		m["trace.replay_sum_us_per_item"].Value, m["trace.cpu_us_per_item"].Value, m["trace.overhead_pct"].Value)
}
