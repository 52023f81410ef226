package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// fleet-uplink: a large pooled fleet uploads classified activity at QoS 0
// over at most nproc shared connections. The JSON codec, broker read/route
// and ingest carry almost all the work; docstore, multicast, wire fan-out
// and the full device middleware carry none.
const (
	fleetDevices   = 20000
	fleetFrameSize = 64
	fleetBatch     = 4
	// fleetStepsPerInterval makes one step a frame-sized slice of the
	// sample interval: the pool staggers frame anchors over 64 slots of the
	// interval, so each step fires one slot. Whole-interval steps would put
	// every phase-locked batch into one Advance and overflow ingest.
	fleetStepsPerInterval = 64
	fleetInterval         = time.Minute
	// fleetRoundSteps is one upload cycle: every device flushes once.
	fleetRoundSteps = fleetBatch * fleetStepsPerInterval
)

type fleet struct {
	seed  int64
	rec   *recorder
	start time.Time
	conns int

	s       *sim.Simulation
	clock   *vclock.Manual
	step    int64
	chk     *fleetChecker
	capture itemCapture

	// Traced-phase layer accumulators.
	layerOn    bool
	pool0      sim.PoolStats
	advanceNs  int64
	advances   int64
	backlogMax int
}

func newFleet(seed int64, rec *recorder, _ string) workload {
	rng := rand.New(rand.NewSource(seed))
	// The seed picks the virtual start minute, which shifts every device's
	// place in the 30-minute activity rotation and every batch boundary.
	start := time.Date(2014, 12, 8, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Intn(7*24*60)) * time.Minute)
	conns := runtime.NumCPU()
	if conns > 2 {
		conns = 2
	}
	return &fleet{
		seed: seed, rec: rec, start: start, conns: conns,
		chk:     newFleetChecker(fleetDevices, fleetFrameSize, fleetInterval, start),
		capture: itemCapture{max: 16384},
	}
}

func (f *fleet) sim() *sim.Simulation { return f.s }

func (f *fleet) setup() error {
	f.clock = vclock.NewManual(f.start)
	s, err := sim.New(sim.Options{
		Clock:      f.clock,
		Seed:       f.seed,
		MobileLink: &netsim.Link{},
		DeviceMode: sim.DeviceModePooled,
		Pool: sim.PoolOptions{
			Connections:    f.conns,
			FrameSize:      fleetFrameSize,
			SampleInterval: fleetInterval,
			UploadBatch:    fleetBatch,
		},
	})
	if err != nil {
		return err
	}
	f.s = s
	s.Server.OnItem(f.hook)
	if err := s.AddDevices(fleetDevices); err != nil {
		return err
	}
	if err := s.StartPool(); err != nil {
		return err
	}
	return s.Pool.WaitReady(60 * time.Second)
}

func (f *fleet) hook(it core.Item) {
	f.chk.observe(it)
	if f.rec.traced() != nil {
		f.capture.add(it)
	}
	f.rec.arrive(causeStep)
}

func (f *fleet) lost() int64 {
	st := f.s.Pool.Stats()
	return int64(st.ItemsDropped+st.ItemsAckLost) + int64(f.s.Server.Stats().Pipeline.Dropped) +
		int64(f.s.Broker.Stats().FanoutDropped)
}

// warmup runs the first two upload cycles: one with no items while the
// first batch fills, one that uploads it.
func (f *fleet) warmup() error {
	for f.step < 2*fleetRoundSteps-1 {
		if _, err := f.advance(); err != nil {
			return err
		}
	}
	return nil
}

func (f *fleet) round() (int64, error) {
	var items int64
	for i := 0; i < fleetRoundSteps; i++ {
		n, err := f.advance()
		if err != nil {
			return items, err
		}
		items += n
	}
	return items, nil
}

// advance runs one frame-sized step and waits for the items it caused.
func (f *fleet) advance() (int64, error) {
	f.step++
	n := f.chk.stepItems(f.step)
	l := f.rec.traced()
	if l != nil && !f.layerOn {
		f.layerOn = true
		f.pool0 = f.s.Pool.Stats()
	}
	f.rec.begin(causeStep, n)
	t0 := nanotime()
	f.clock.Advance(fleetInterval / fleetStepsPerInterval)
	if l != nil {
		f.advanceNs += nanotime() - t0
		f.advances++
		if b := f.s.Server.Stats().Pipeline.Backlog; b > f.backlogMax {
			f.backlogMax = b
		}
	}
	if n > 0 {
		if err := f.rec.wait(f.lost); err != nil {
			return n, fmt.Errorf("step %d: %w", f.step, err)
		}
	}
	f.rec.endCause(causeStep, "step.advance")
	return n, nil
}

func (f *fleet) check() []string {
	return f.chk.finish(f.s.Server.Context())
}

func (f *fleet) layers(l *spanLog, m metrics) error {
	st := f.s.Pool.Stats()
	m.set("sim.advance_us_per_step", float64(f.advanceNs)/1e3/float64(max(f.advances, 1)), "us")
	m.set("sim.frame_ticks", float64(st.Ticks-f.pool0.Ticks), "count")
	m.set("sim.items_published", float64(st.ItemsPublished-f.pool0.ItemsPublished), "count")
	m.set("vclock.waiters", float64(f.clock.Waiters()), "count")
	m.set("ingest.backlog_max", float64(f.backlogMax), "count")
	m.set("osn.actions", 0, "count")

	items := f.capture.snapshot()
	users := make([]string, 0, fleetDevices)
	for i := 0; i < fleetDevices; i++ {
		users = append(users, fleetUser(i))
	}
	return replayLayers(l, m, replaySpec{
		items: items,
		// The pooled fleet registers nobody with the server; the replay
		// registry holds one user so the per-user queries have a target.
		users:    users[:1],
		triggers: senseTriggers(items, f.start),
		actions:  syntheticActions(users, f.seed, f.start),
		clock:    f.start,
	})
}

func (f *fleet) close() {
	if f.s != nil {
		f.s.Close()
		f.s = nil
	}
}

func fleetUser(idx int) string {
	return fmt.Sprintf("pool%06d", idx)
}

// fleetChecker recomputes what the pooled fleet must deliver from the
// cadence and batch arithmetic, independently of the pool's own counters.
type fleetChecker struct {
	devices   int
	frameSize int
	interval  time.Duration
	start     time.Time
	// perSlot[m] counts devices whose frame fires in slot m of the
	// interval.
	perSlot  [fleetStepsPerInterval]int64
	expected atomic.Int64

	last  []atomic.Int64 // last timestamp seen per device (UnixNano), 0 = none
	count atomic.Int64
	fails failureLog
}

func newFleetChecker(devices, frameSize int, interval time.Duration, start time.Time) *fleetChecker {
	c := &fleetChecker{devices: devices, frameSize: frameSize, interval: interval, start: start,
		last: make([]atomic.Int64, devices)}
	for i := 0; i < devices; i++ {
		c.perSlot[(i/frameSize)%fleetStepsPerInterval]++
	}
	return c
}

// stepItems is the number of items step s (1-based) must deliver. Slot m's
// frames fire for the k-th time at start + m/64 interval + k intervals,
// which is step 64k+m; every fleetBatch-th firing flushes fleetBatch items
// per device.
func (c *fleetChecker) stepItems(s int64) int64 {
	k, m := s/fleetStepsPerInterval, s%fleetStepsPerInterval
	var n int64
	if k >= 1 && k%fleetBatch == 0 {
		n = fleetBatch * c.perSlot[m]
	}
	c.expected.Add(n)
	return n
}

// anchor is the first sample instant of a device's frame.
func (c *fleetChecker) anchor(idx int) time.Time {
	slot := (idx / c.frameSize) % fleetStepsPerInterval
	return c.start.Add(c.interval * time.Duration(slot) / fleetStepsPerInterval)
}

// fleetLabel is the still/walking/running rotation a pooled device follows:
// 30-minute slots, shifted by the device index.
func fleetLabel(idx int, t time.Time) string {
	labels := [3]string{"still", "walking", "running"}
	slot := t.UnixNano()/int64(30*time.Minute) + int64(idx%3)
	return labels[slot%3]
}

func (c *fleetChecker) observe(it core.Item) {
	c.count.Add(1)
	idx, err := strconv.Atoi(strings.TrimPrefix(it.UserID, "pool"))
	if err != nil || idx < 0 || idx >= c.devices || len(it.UserID) != len("pool000000") {
		c.fails.add("item from unknown user %q", it.UserID)
		return
	}
	if it.DeviceID != it.UserID+"-phone" || it.Granularity != core.GranularityClassified {
		c.fails.add("user %s: device %q granularity %q", it.UserID, it.DeviceID, it.Granularity)
	}
	ts := it.Time.UnixNano()
	prev := c.last[idx].Swap(ts)
	want := c.anchor(idx).Add(c.interval).UnixNano()
	if prev != 0 {
		want = prev + int64(c.interval)
	}
	if ts != want {
		c.fails.add("user %s: timestamp %s, want %s", it.UserID,
			time.Unix(0, ts).UTC().Format(time.RFC3339), time.Unix(0, want).UTC().Format(time.RFC3339))
	}
	if lbl := fleetLabel(idx, it.Time); it.Classified != lbl {
		c.fails.add("user %s at %s: label %q, want %q", it.UserID, it.Time.UTC().Format(time.RFC3339), it.Classified, lbl)
	}
}

// finish checks the delivered count and the server's context registry.
func (c *fleetChecker) finish(ctx core.Context) []string {
	if got, want := c.count.Load(), c.expected.Load(); got != want {
		c.fails.add("delivered %d items, cadence and batch arithmetic gives %d", got, want)
	}
	for i := range c.last {
		ts := c.last[i].Load()
		if ts == 0 {
			continue
		}
		user := fleetUser(i)
		if got, want := ctx[core.Key(user, core.CtxPhysicalActivity)], fleetLabel(i, time.Unix(0, ts)); got != want {
			c.fails.add("context of %s holds %q, last label was %q", user, got, want)
		}
	}
	return c.fails.list()
}
