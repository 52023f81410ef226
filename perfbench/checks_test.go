package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/core/server"
	"repro/internal/geo"
	"repro/internal/osn"
	"repro/internal/sensors"
)

var testStart = time.Date(2014, 12, 8, 9, 0, 0, 0, time.UTC)

// fleetStream is the item sequence a correct pooled fleet of n devices
// delivers over the given number of frame-sized steps, with the checker
// primed for those steps.
func fleetStream(n int, steps int64) (*fleetChecker, []core.Item) {
	c := newFleetChecker(n, fleetFrameSize, fleetInterval, testStart)
	var items []core.Item
	for s := int64(1); s <= steps; s++ {
		if c.stepItems(s) == 0 {
			continue
		}
		now := testStart.Add(time.Duration(s) * fleetInterval / fleetStepsPerInterval)
		for idx := 0; idx < n; idx++ {
			if int64((idx/fleetFrameSize)%fleetStepsPerInterval) != s%fleetStepsPerInterval {
				continue
			}
			for j := 0; j < fleetBatch; j++ {
				ts := now.Add(-time.Duration(fleetBatch-1-j) * fleetInterval)
				items = append(items, core.Item{StreamID: "pool-activity", UserID: fleetUser(idx),
					DeviceID: fleetUser(idx) + "-phone", Modality: sensors.ModalityAccelerometer,
					Granularity: core.GranularityClassified, Time: ts, Classified: fleetLabel(idx, ts)})
			}
		}
	}
	return c, items
}

func fleetContext(items []core.Item) core.Context {
	ctx := core.Context{}
	for _, it := range items {
		ctx[core.Key(it.UserID, core.CtxPhysicalActivity)] = it.Classified
	}
	return ctx
}

func TestFleetChecker(t *testing.T) {
	const devices, steps = 200, 3 * fleetRoundSteps
	mutations := map[string]func([]core.Item) []core.Item{
		"none":    func(it []core.Item) []core.Item { return it },
		"dropped": func(it []core.Item) []core.Item { return append(it[:10:10], it[11:]...) },
		"duplicated": func(it []core.Item) []core.Item {
			return append(append(it[:11:11], it[10]), it[11:]...)
		},
		"reordered": func(it []core.Item) []core.Item {
			it[10], it[11] = it[11], it[10]
			return it
		},
		"mislabelled": func(it []core.Item) []core.Item {
			if it[10].Classified == "running" {
				it[10].Classified = "still"
			} else {
				it[10].Classified = "running"
			}
			return it
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			c, items := fleetStream(devices, steps)
			ctx := fleetContext(items)
			for _, it := range mutate(items) {
				c.observe(it)
			}
			fails := c.finish(ctx)
			if (len(fails) == 0) != (name == "none") {
				t.Fatalf("mutation %s: failures %q", name, fails)
			}
		})
	}
}

func TestFleetCheckerContext(t *testing.T) {
	c, items := fleetStream(200, 2*fleetRoundSteps)
	ctx := fleetContext(items)
	for _, it := range items {
		c.observe(it)
	}
	key := core.Key(items[0].UserID, core.CtxPhysicalActivity)
	ctx[key] = ctx[key] + "-stale"
	if fails := c.finish(ctx); len(fails) != 1 || !strings.Contains(fails[0], "context") {
		t.Fatalf("stale context: failures %q", fails)
	}
}

func TestFleetStepArithmetic(t *testing.T) {
	c := newFleetChecker(fleetDevices, fleetFrameSize, fleetInterval, testStart)
	var total int64
	for s := int64(1); s < 2*fleetRoundSteps; s++ {
		total += c.stepItems(s)
	}
	// The first cycle fills the batch; the second uploads it once.
	if total != fleetDevices*fleetBatch {
		t.Fatalf("two cycles deliver %d items, want %d", total, fleetDevices*fleetBatch)
	}
}

func osnFixture() (*osnChecker, []core.Item) {
	users := []osnUser{
		{id: "user0000", home: "Paris", phases: []sensors.Phase{
			{Activity: sensors.ActivityWalking, Duration: time.Minute}, {Activity: sensors.ActivityStill, Duration: 2 * time.Minute}}},
		{id: "user0001", home: "Lyon", phases: []sensors.Phase{{Activity: sensors.ActivityRunning, Duration: 5 * time.Minute}}},
	}
	c := newOSNChecker(testStart, osnStep, users)
	var items []core.Item
	for step := 1; step <= 3; step++ {
		for i, u := range users {
			id := "facebook-" + string(rune('a'+step)) + string(rune('0'+i))
			c.expectAction(u.id, func() string { return id })
			items = append(items, core.Item{StreamID: checkinStreamID(u.id), UserID: u.id, DeviceID: u.id + "-phone",
				Modality: sensors.ModalityLocation, Granularity: core.GranularityClassified, Classified: u.home,
				Action: &osn.Action{ID: id, UserID: u.id, Network: "facebook", Type: osn.ActionPost}})
		}
		c.steps.Store(int64(step))
		for _, u := range users {
			ts := testStart.Add(time.Duration(step) * osnStep)
			items = append(items, core.Item{StreamID: activityStreamID(u.id), UserID: u.id, DeviceID: u.id + "-phone",
				Modality: sensors.ModalityAccelerometer, Granularity: core.GranularityClassified, Time: ts,
				Classified: phaseLabel(u, testStart, ts)})
		}
	}
	return c, items
}

func TestOSNChecker(t *testing.T) {
	mutations := map[string]func([]core.Item) []core.Item{
		"none":                func(it []core.Item) []core.Item { return it },
		"dropped action item": func(it []core.Item) []core.Item { return append(it[:0:0], it[1:]...) },
		"dropped continuous":  func(it []core.Item) []core.Item { return append(it[:2:2], it[3:]...) },
		"duplicated action":   func(it []core.Item) []core.Item { return append(it, it[0]) },
		"reordered continuous": func(it []core.Item) []core.Item {
			it[2], it[6] = it[6], it[2] // user0000's minutes 1 and 2
			return it
		},
		"action coupled to another user": func(it []core.Item) []core.Item {
			a := *it[0].Action
			a.UserID = "user0001"
			it[0].Action, it[0].UserID = &a, "user0001"
			return it
		},
		"mislabelled city": func(it []core.Item) []core.Item {
			it[1].Classified = "Paris"
			return it
		},
		"mislabelled activity": func(it []core.Item) []core.Item {
			it[3].Classified = "still"
			return it
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			c, items := osnFixture()
			for _, it := range mutate(items) {
				c.observe(it)
			}
			fails := c.finish()
			if (len(fails) == 0) != (name == "none") {
				t.Fatalf("mutation %s: failures %q", name, fails)
			}
		})
	}
}

func TestPhaseLabel(t *testing.T) {
	u := osnUser{phases: []sensors.Phase{
		{Activity: sensors.ActivityWalking, Duration: 10 * time.Minute},
		{Activity: sensors.ActivityRunning, Duration: 5 * time.Minute}}}
	for _, tc := range []struct {
		at   time.Duration
		want string
	}{{0, "walking"}, {9 * time.Minute, "walking"}, {10 * time.Minute, "running"}, {15 * time.Minute, "walking"}} {
		if got := phaseLabel(u, testStart, testStart.Add(tc.at)); got != tc.want {
			t.Errorf("phase at %v: %q, want %q", tc.at, got, tc.want)
		}
	}
}

// geoFixture moves three users across a city multicast and a near
// multicast; it returns the checker and the triggers a correct deployment
// sends, in order.
func geoFixture() (*geoChecker, [][2]any) {
	paris := geo.Point{Lat: 48.8566, Lon: 2.3522}
	lyon := geo.Point{Lat: 45.7640, Lon: 4.8357}
	defs := []mcDef{
		{"city-paris", server.MemberQuery{Kind: server.QueryCity, City: "Paris"}},
		{"near-lyon", server.MemberQuery{Kind: server.QueryNear, Center: lyon, RadiusMeters: 2000}},
	}
	users := []string{"geo0000", "geo0001", "geo0002"}
	home := []fix{{paris, "Paris"}, {lyon, "Lyon"}, {lyon.Offset(5000, 0), "Lyon"}}
	c := newGeoChecker(defs, users, home)
	triggers := [][2]any{{"city-paris/geo0000-phone", true}, {"near-lyon/geo0001-phone", true}}
	c.move(0, fix{lyon.Offset(500, 90), "Lyon"})
	triggers = append(triggers, [2]any{"city-paris/geo0000-phone", false}, [2]any{"near-lyon/geo0000-phone", true})
	c.move(2, fix{paris.Offset(100, 0), "Paris"})
	triggers = append(triggers, [2]any{"city-paris/geo0002-phone", true})
	return c, triggers
}

func TestGeoChecker(t *testing.T) {
	members := map[string][]string{"city-paris": {"geo0002"}, "near-lyon": {"geo0000", "geo0001"}}
	mutations := map[string]func(trig [][2]any, mem map[string][]string, loc []fix){
		"none": func([][2]any, map[string][]string, []fix) {},
		"dropped trigger": func(trig [][2]any, _ map[string][]string, _ []fix) {
			trig[2] = [2]any{"", false}
		},
		"duplicated trigger": func(trig [][2]any, _ map[string][]string, _ []fix) { trig[1] = trig[0] },
		"reordered triggers": func(trig [][2]any, _ map[string][]string, _ []fix) {
			trig[0], trig[2] = trig[2], trig[0]
		},
		"missing member": func(_ [][2]any, mem map[string][]string, _ []fix) { mem["near-lyon"] = []string{"geo0001"} },
		"mislabelled location": func(_ [][2]any, _ map[string][]string, loc []fix) {
			loc[1].city = "Paris"
		},
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			c, trig := geoFixture()
			mem := map[string][]string{}
			for k, v := range members {
				mem[k] = append([]string(nil), v...)
			}
			loc := append([]fix(nil), c.last...)
			mutate(trig, mem, loc)
			for _, tr := range trig {
				if id := tr[0].(string); id != "" {
					c.sawTrigger(id, tr[1].(bool))
				}
			}
			for id, m := range mem {
				c.checkMembers(id, m)
			}
			for u, f := range loc {
				c.checkLocation("registry", u, f.pt, f.city)
			}
			c.checkTriggers()
			fails := c.fails.list()
			if (len(fails) == 0) != (name == "none") {
				t.Fatalf("mutation %s: failures %q", name, fails)
			}
		})
	}
}

func TestPyQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := pyQuartiles(v); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
}
