package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// The benchmark measures host cost, so it reads the real clock on purpose;
// every read goes through these helpers so the program under test keeps
// running on its manual clock.

//lint:ignore wallclock the benchmark measures host time around calls into the program
var processStart = time.Now()

// nanotime returns monotonic host nanoseconds since the benchmark started.
func nanotime() int64 {
	//lint:ignore wallclock the benchmark measures host time around calls into the program
	return int64(time.Since(processStart))
}

// pollTimer is the real-time timer the closed loop waits on between checks
// of its exit condition.
func pollTimer(d time.Duration) *time.Timer {
	//lint:ignore wallclock waiting on real goroutine progress of the program under test
	return time.NewTimer(d)
}

// hostSleep backs off while background goroutines of the program make
// progress that no counter signals.
func hostSleep(d time.Duration) {
	//lint:ignore wallclock waiting on real goroutine progress of the program under test
	time.Sleep(d)
}

// cpuNanos returns the process's user+system CPU time.
func cpuNanos() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// stealTicks reads the host-wide CPU time the hypervisor took from this
// machine's virtual CPUs (the "steal" column of /proc/stat, in clock
// ticks); 0 where it is not available.
func stealTicks() int64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// quantile returns the q-quantile of sorted values by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// counters flattens a registry snapshot into family totals (summed over
// label sets) plus one entry per labelled series, keyed
// "family{label=value,...}".
func counters(reg *obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, f := range reg.Snapshot() {
		for _, s := range f.Samples {
			v := s.Value
			if f.Type == "histogram" {
				v = float64(s.Count)
			}
			out[f.Name] += v
			if len(s.Labels) > 0 {
				key := f.Name + "{"
				for i, l := range s.Labels {
					if i > 0 {
						key += ","
					}
					key += l.Name + "=" + l.Value
				}
				out[key+"}"] += v
			}
		}
	}
	return out
}

// span is one interval the benchmark records around its own calls into the
// program: a cause (step, action burst, publish batch), an item arrival
// parented to its cause, or a layer replay.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory; they are written out when the run ends.
type spanLog struct {
	mu    sync.Mutex
	next  uint64
	spans []span
}

func (l *spanLog) newID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	if s.ID == 0 {
		l.next++
		s.ID = l.next
	}
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// record runs fn inside a named span.
func (l *spanLog) record(name string, fn func()) {
	start := nanotime()
	fn()
	l.add(span{Name: name, Start: start, End: nanotime()})
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			l.mu.Unlock()
			_ = f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// Cause kinds an item can be attributed to.
const (
	causeStep   = 0 // a clock Advance, or the first publish of a batch
	causeAction = 1 // the first OSN action of a burst
)

// recorder is the closed loop's view of the item hook: it counts items
// reaching the server's hook, times each against the start of the cause
// that produced it, and wakes the driver once the expected count arrived.
type recorder struct {
	cause     [2]atomic.Int64
	causeSpan [2]atomic.Uint64
	delivered atomic.Int64
	target    atomic.Int64
	wake      chan struct{}

	on    atomic.Bool
	mu    sync.Mutex
	lat   []int64
	spans atomic.Pointer[spanLog]
}

// traced returns the span log while a traced phase is running, else nil.
func (r *recorder) traced() *spanLog {
	if !r.on.Load() {
		return nil
	}
	return r.spans.Load()
}

func newRecorder() *recorder {
	return &recorder{wake: make(chan struct{}, 1)}
}

// begin marks the start of a cause expected to produce n items.
func (r *recorder) begin(kind int, n int64) {
	now := nanotime()
	r.cause[kind].Store(now)
	if l := r.traced(); l != nil {
		r.causeSpan[kind].Store(l.newID())
	}
	r.target.Add(n)
}

// endCause closes the span of the current cause.
func (r *recorder) endCause(kind int, name string) {
	if l := r.traced(); l != nil {
		l.add(span{ID: r.causeSpan[kind].Load(), Name: name, Start: r.cause[kind].Load(), End: nanotime()})
	}
}

// arrive is called from the item hook on ingest workers.
func (r *recorder) arrive(kind int) {
	if r.on.Load() {
		now := nanotime()
		start := r.cause[kind].Load()
		r.mu.Lock()
		r.lat = append(r.lat, now-start)
		r.mu.Unlock()
		if l := r.spans.Load(); l != nil {
			l.add(span{Parent: r.causeSpan[kind].Load(), Name: "item.arrive", Start: start, End: now})
		}
	}
	if r.delivered.Add(1) >= r.target.Load() {
		select {
		case r.wake <- struct{}{}:
		default:
		}
	}
}

// stallTimeout bounds how long the closed loop waits without any progress
// before it declares the expected items lost.
const stallTimeout = 20 * time.Second

// wait blocks until every expected item either arrived or is counted lost
// by lost(). It fails when no item arrives for stallTimeout.
func (r *recorder) wait(lost func() int64) error {
	last := r.delivered.Load()
	lastProgress := nanotime()
	for {
		got := r.delivered.Load()
		if got+lost() >= r.target.Load() {
			return nil
		}
		if got != last {
			last, lastProgress = got, nanotime()
		} else if nanotime()-lastProgress > int64(stallTimeout) {
			return fmt.Errorf("closed loop stalled: %d of %d expected items arrived, %d counted lost",
				got, r.target.Load(), lost())
		}
		t := pollTimer(5 * time.Millisecond)
		select {
		case <-r.wake:
		case <-t.C:
		}
		t.Stop()
	}
}

// latencies returns the recorded latencies in milliseconds, sorted, and
// clears the buffer.
func (r *recorder) latencies() []float64 {
	r.mu.Lock()
	lat := r.lat
	r.lat = nil
	r.mu.Unlock()
	out := make([]float64, len(lat))
	for i, v := range lat {
		out[i] = float64(v) / 1e6
	}
	sort.Float64s(out)
	return out
}

// itemCapture keeps the first items of the traced phase as replay input.
type itemCapture struct {
	mu    sync.Mutex
	max   int
	items []core.Item
}

func (c *itemCapture) add(it core.Item) {
	c.mu.Lock()
	if len(c.items) < c.max {
		c.items = append(c.items, it)
	}
	c.mu.Unlock()
}

func (c *itemCapture) snapshot() []core.Item {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]core.Item(nil), c.items...)
}

// memStats reads the runtime's allocation counters.
func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}
