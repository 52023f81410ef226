package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/osn"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// osn-trigger: full-mode users, each with a one-minute continuous activity
// stream and a location social-event stream. Before every one-minute step
// a burst of Facebook actions goes out with zero OSN and processing delay:
// action → sense trigger over the user's wire session → one-off sensing and
// classification on the mobile middleware → action-coupled upload.
const (
	osnUsers     = 500
	osnStep      = time.Minute
	osnBurstMin  = 100
	osnBurstSpan = 50 // bursts hold osnBurstMin..osnBurstMin+osnBurstSpan-1 actions
)

// osnCities are the home cities users are parked in.
var osnCities = []string{"Paris", "Bordeaux", "Lyon", "Toulouse"}

type osnUser struct {
	id     string
	home   string
	phases []sensors.Phase
}

type osnTrigger struct {
	seed  int64
	rec   *recorder
	start time.Time
	users []osnUser
	burst *rand.Rand

	s       *sim.Simulation
	clock   *vclock.Manual
	chk     *osnChecker
	capture itemCapture
	steps   int64

	actionsMu sync.Mutex
	actions   []osn.Action // traced-phase actions, replay input

	advanceNs int64
	advances  int64
	backlog   int
}

func newOSNTrigger(seed int64, rec *recorder, _ string) workload {
	rng := rand.New(rand.NewSource(seed))
	start := time.Date(2014, 12, 8, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Intn(7*24*60)) * time.Minute)
	activities := []sensors.Activity{sensors.ActivityStill, sensors.ActivityWalking, sensors.ActivityRunning}
	users := make([]osnUser, osnUsers)
	for i := range users {
		u := osnUser{id: fmt.Sprintf("user%04d", i), home: osnCities[rng.Intn(len(osnCities))]}
		for p := 0; p < 2+rng.Intn(3); p++ {
			u.phases = append(u.phases, sensors.Phase{
				Activity: activities[rng.Intn(len(activities))],
				Audio:    sensors.AudioSilent,
				Duration: time.Duration(5+rng.Intn(26)) * time.Minute,
			})
		}
		users[i] = u
	}
	o := &osnTrigger{seed: seed, rec: rec, start: start, users: users,
		burst: rand.New(rand.NewSource(seed ^ 0x5eed)), capture: itemCapture{max: 16384}}
	o.chk = newOSNChecker(start, osnStep, users)
	return o
}

func (o *osnTrigger) sim() *sim.Simulation { return o.s }

func activityStreamID(user string) string { return user + "/activity" }
func checkinStreamID(user string) string  { return user + "/checkin" }

func (o *osnTrigger) setup() error {
	o.clock = vclock.NewManual(o.start)
	s, err := sim.New(sim.Options{
		Clock:         o.clock,
		Seed:          o.seed,
		MobileLink:    &netsim.Link{},
		FacebookDelay: &osn.DelayModel{},
	})
	if err != nil {
		return err
	}
	o.s = s
	s.Server.OnItem(o.hook)
	for _, u := range o.users {
		profile, err := sim.StationaryProfile(s.Places, u.home, sensors.WithPhases(true, u.phases...))
		if err != nil {
			return err
		}
		if _, err := s.AddUser(u.id, profile); err != nil {
			return err
		}
	}
	for _, u := range o.users {
		dev := u.id + "-phone"
		for _, cfg := range []core.StreamConfig{
			{ID: activityStreamID(u.id), DeviceID: dev, UserID: u.id, Modality: sensors.ModalityAccelerometer,
				Granularity: core.GranularityClassified, Kind: core.KindContinuous, SampleInterval: osnStep},
			{ID: checkinStreamID(u.id), DeviceID: dev, UserID: u.id, Modality: sensors.ModalityLocation,
				Granularity: core.GranularityClassified, Kind: core.KindSocialEvent},
		} {
			if err := s.Server.CreateRemoteStream(cfg); err != nil {
				return err
			}
		}
	}
	// Provisioning ends when every device runs both streams pushed to it.
	deadline := nanotime() + int64(60*time.Second)
	for _, u := range o.users {
		h, _ := s.Handle(u.id)
		for len(h.Mobile.StreamConfigs()) < 2 {
			if nanotime() > deadline {
				return fmt.Errorf("stream configs not installed on %s", u.id)
			}
			hostSleep(100 * time.Microsecond)
		}
	}
	return nil
}

func (o *osnTrigger) hook(it core.Item) {
	o.chk.observe(it)
	if o.rec.traced() != nil {
		o.capture.add(it)
	}
	if it.Action != nil {
		o.rec.arrive(causeAction)
		return
	}
	o.rec.arrive(causeStep)
}

func (o *osnTrigger) lost() int64 {
	return int64(o.s.Server.Stats().Pipeline.Dropped) + int64(o.s.Broker.Stats().FanoutDropped)
}

func (o *osnTrigger) warmup() error {
	for i := 0; i < 5; i++ {
		if _, err := o.round(); err != nil {
			return err
		}
	}
	return nil
}

// round records one burst of actions, waits for the action-coupled items,
// then advances one minute and waits for every continuous item.
func (o *osnTrigger) round() (int64, error) {
	l := o.rec.traced()
	n := osnBurstMin + o.burst.Intn(osnBurstSpan)
	o.rec.begin(causeAction, int64(n))
	now := o.clock.Now()
	for i := 0; i < n; i++ {
		u := o.users[o.burst.Intn(len(o.users))]
		o.chk.expectAction(u.id, func() string {
			a, err := o.s.Facebook.Record(u.id, osn.ActionPost, "checking in", now)
			if err != nil {
				o.chk.fails.add("record action for %s: %v", u.id, err)
				return ""
			}
			if l != nil {
				o.actionsMu.Lock()
				o.actions = append(o.actions, a)
				o.actionsMu.Unlock()
			}
			return a.ID
		})
	}
	if err := o.rec.wait(o.lost); err != nil {
		return int64(n), fmt.Errorf("action burst: %w", err)
	}
	o.rec.endCause(causeAction, "burst.actions")

	o.rec.begin(causeStep, int64(len(o.users)))
	t0 := nanotime()
	o.clock.Advance(osnStep)
	if l != nil {
		o.advanceNs += nanotime() - t0
		o.advances++
		if b := o.s.Server.Stats().Pipeline.Backlog; b > o.backlog {
			o.backlog = b
		}
	}
	o.steps++
	o.chk.steps.Store(o.steps)
	if err := o.rec.wait(o.lost); err != nil {
		return int64(n + len(o.users)), fmt.Errorf("minute %d: %w", o.steps, err)
	}
	o.rec.endCause(causeStep, "step.advance")
	return int64(n + len(o.users)), nil
}

func (o *osnTrigger) check() []string {
	return o.chk.finish()
}

func (o *osnTrigger) layers(l *spanLog, m metrics) error {
	m.set("sim.advance_us_per_step", float64(o.advanceNs)/1e3/float64(max(o.advances, 1)), "us")
	m.set("sim.frame_ticks", 0, "count")
	m.set("sim.items_published", 0, "count")
	m.set("vclock.waiters", float64(o.clock.Waiters()), "count")
	m.set("ingest.backlog_max", float64(o.backlog), "count")
	o.actionsMu.Lock()
	actions := append([]osn.Action(nil), o.actions...)
	o.actionsMu.Unlock()
	m.set("osn.actions", float64(len(actions)), "count")

	items := o.capture.snapshot()
	users := make([]string, len(o.users))
	for i, u := range o.users {
		users[i] = u.id
	}
	return replayLayers(l, m, replaySpec{
		items:          items,
		users:          users,
		streams:        o.streamConfigs(),
		triggers:       senseTriggers(items, o.start),
		actions:        actions,
		clock:          o.start,
		deviceSessions: true,
	})
}

func (o *osnTrigger) streamConfigs() []core.StreamConfig {
	var out []core.StreamConfig
	for _, u := range o.users {
		h, ok := o.s.Handle(u.id)
		if !ok {
			continue
		}
		out = append(out, h.Mobile.StreamConfigs()...)
	}
	return out
}

func (o *osnTrigger) close() {
	if o.s != nil {
		o.s.Close()
		o.s = nil
	}
}

// osnChecker recomputes the osn-trigger outputs from the benchmark's own
// inputs: the actions it recorded, each user's home city and scripted
// activity phases, and the number of minutes advanced.
type osnChecker struct {
	start time.Time
	step  time.Duration
	users map[string]*osnUserState
	steps atomic.Int64

	mu      sync.Mutex
	pending map[string]string // action id -> acting user
	seen    map[string]int

	fails failureLog
}

type osnUserState struct {
	osnUser
	cont atomic.Int64
}

func newOSNChecker(start time.Time, step time.Duration, users []osnUser) *osnChecker {
	c := &osnChecker{start: start, step: step, users: make(map[string]*osnUserState, len(users)),
		pending: make(map[string]string), seen: make(map[string]int)}
	for _, u := range users {
		c.users[u.id] = &osnUserState{osnUser: u}
	}
	return c
}

// expectAction registers the action that record returns the id of. The
// registration and the recording happen under one lock so that the
// action-coupled item, which may arrive before record returns, finds its
// entry.
func (c *osnChecker) expectAction(user string, record func() string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if id := record(); id != "" {
		c.pending[id] = user
	}
}

// phaseLabel is the activity a user's scripted phases give at t.
func phaseLabel(u osnUser, start, t time.Time) string {
	var total time.Duration
	for _, p := range u.phases {
		total += p.Duration
	}
	el := t.Sub(start) % total
	for _, p := range u.phases {
		if el < p.Duration {
			return p.Activity.String()
		}
		el -= p.Duration
	}
	return ""
}

func (c *osnChecker) observe(it core.Item) {
	u, ok := c.users[it.UserID]
	if !ok {
		c.fails.add("item from unknown user %q", it.UserID)
		return
	}
	if it.Action != nil {
		c.mu.Lock()
		// The burst is recorded under c.mu, so an item can only be looked
		// up once its action's entry exists.
		owner, known := c.pending[it.Action.ID]
		c.seen[it.Action.ID]++
		c.mu.Unlock()
		if !known {
			c.fails.add("item coupled to unknown action %q", it.Action.ID)
		} else if owner != it.UserID || it.Action.UserID != it.UserID {
			c.fails.add("action %s of %s arrived coupled to user %s", it.Action.ID, owner, it.UserID)
		}
		if it.StreamID != checkinStreamID(it.UserID) || it.Classified != u.home {
			c.fails.add("check-in of %s on %q: location %q, want home city %q", it.UserID, it.StreamID, it.Classified, u.home)
		}
		return
	}
	k := u.cont.Add(1)
	if want := c.start.Add(time.Duration(k) * c.step); !it.Time.Equal(want) {
		c.fails.add("activity item %d of %s stamped %s, want %s", k, it.UserID,
			it.Time.UTC().Format(time.RFC3339), want.Format(time.RFC3339))
	}
	if it.StreamID != activityStreamID(it.UserID) {
		c.fails.add("continuous item of %s on stream %q", it.UserID, it.StreamID)
	}
	if want := phaseLabel(u.osnUser, c.start, it.Time); it.Classified != want {
		c.fails.add("activity of %s at %s: %q, profile phase is %q", it.UserID,
			it.Time.UTC().Format(time.RFC3339), it.Classified, want)
	}
}

func (c *osnChecker) finish() []string {
	steps := c.steps.Load()
	for id, u := range c.users {
		if got := u.cont.Load(); got != steps {
			c.fails.add("user %s delivered %d continuous items over %d minutes", id, got, steps)
		}
	}
	c.mu.Lock()
	for id := range c.pending {
		if n := c.seen[id]; n != 1 {
			c.fails.add("action %s arrived %d times", id, n)
		}
	}
	c.mu.Unlock()
	return c.fails.list()
}
