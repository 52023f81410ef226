package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/core/server"
	"repro/internal/docstore"
	"repro/internal/geo"
	"repro/internal/mqtt"
	"repro/internal/netsim"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// geo-multicast: registered users move inside and between four cities; the
// benchmark's own clients upload their raw GPS fixes at QoS 1 in fixed
// batches. City and near multicast streams follow them, so the durable
// registry is written (locations, persisted items, stream configs, WAL)
// while geo queries read it, and a wildcard subscriber sees every config
// and remove trigger the membership churn sends.
const (
	geoUsers    = 1000
	geoBatch    = 40
	geoStayProb = 0.7 // share of moves that stay inside the current city
	geoStep     = time.Second
	// geoCityFill keeps generated fixes well inside a city's region, so
	// each fix's city is known by construction.
	geoCityFill = 0.85
	// geoNearMargin keeps fixes this far from a near query's edge, so the
	// benchmark's haversine and the registry's agree on every member.
	geoNearMargin = 1.0
	// geoFanoutQueue sizes each broker session's delivery queue for the
	// largest trigger burst the workload causes: a multicast created with
	// every user as a member pushes one config per user at once. At the
	// broker default of 256, the wildcard subscriber loses the tail of such
	// a burst whenever a city holds more than 256 users.
	geoFanoutQueue = 2 * geoUsers
)

// mcDef is one multicast stream the geo workload (and every layer replay)
// sets up.
type mcDef struct {
	id    string
	query server.MemberQuery
}

func geoMulticasts(places *geo.PlaceDB) []mcDef {
	bordeaux, _ := places.Lookup("Bordeaux")
	toulouse, _ := places.Lookup("Toulouse")
	return []mcDef{
		{"city-paris", server.MemberQuery{Kind: server.QueryCity, City: "Paris"}},
		{"city-lyon", server.MemberQuery{Kind: server.QueryCity, City: "Lyon"}},
		{"near-bordeaux", server.MemberQuery{Kind: server.QueryNear, Center: bordeaux.Region.Center, RadiusMeters: 5000}},
		{"near-toulouse", server.MemberQuery{Kind: server.QueryNear, Center: toulouse.Region.Center.Offset(3000, 90), RadiusMeters: 4000}},
	}
}

func geoTemplate() core.StreamConfig {
	return core.StreamConfig{Modality: sensors.ModalityLocation, Granularity: core.GranularityClassified,
		Kind: core.KindContinuous, SampleInterval: time.Minute}
}

// haversine is the benchmark's own great-circle distance in meters.
func haversine(a, b geo.Point) float64 {
	const r = 6371000.0
	rad := math.Pi / 180
	dLat, dLon := (b.Lat-a.Lat)*rad, (b.Lon-a.Lon)*rad
	h := math.Pow(math.Sin(dLat/2), 2) + math.Cos(a.Lat*rad)*math.Cos(b.Lat*rad)*math.Pow(math.Sin(dLon/2), 2)
	return 2 * r * math.Asin(math.Sqrt(h))
}

type fix struct {
	pt   geo.Point
	city string
}

type geoMulticast struct {
	seed  int64
	rec   *recorder
	dir   string
	start time.Time
	rng   *rand.Rand

	cities []geo.Place
	defs   []mcDef
	users  []string
	home   []fix // initial fixes

	s       *sim.Simulation
	clock   *vclock.Manual
	sub     *mqtt.Client
	pubs    []*mqtt.Client
	mcs     []*server.MulticastStream
	chk     *geoChecker
	capture itemCapture

	// Traced-phase layer accumulators.
	pubWaitNs  atomic.Int64
	publishes  atomic.Int64
	advanceNs  int64
	advances   int64
	backlogMax int
}

func newGeoMulticast(seed int64, rec *recorder, dir string) workload {
	rng := rand.New(rand.NewSource(seed))
	places := geo.EuropeanCities()
	g := &geoMulticast{seed: seed, rec: rec, dir: dir, rng: rng,
		start: time.Date(2014, 12, 8, 0, 0, 0, 0, time.UTC).Add(time.Duration(rng.Intn(7*24*60)) * time.Minute),
		defs:  geoMulticasts(places), capture: itemCapture{max: 16384}}
	for _, name := range osnCities {
		p, _ := places.Lookup(name)
		g.cities = append(g.cities, p)
	}
	for i := 0; i < geoUsers; i++ {
		g.users = append(g.users, fmt.Sprintf("geo%04d", i))
		g.home = append(g.home, g.randomFix(rng.Intn(len(g.cities))))
	}
	g.chk = newGeoChecker(g.defs, g.users, g.home)
	return g
}

// randomFix draws a point inside city c, clear of every near query's edge.
func (g *geoMulticast) randomFix(c int) fix {
	city := g.cities[c]
	for {
		r := city.Region.Radius * geoCityFill * math.Sqrt(g.rng.Float64())
		pt := city.Region.Center.Offset(r, g.rng.Float64()*360)
		if haversine(pt, city.Region.Center) >= city.Region.Radius*0.95 {
			continue
		}
		clear := true
		for _, d := range g.defs {
			if d.query.Kind == server.QueryNear && math.Abs(haversine(pt, d.query.Center)-d.query.RadiusMeters) < geoNearMargin {
				clear = false
			}
		}
		if clear {
			return fix{pt: pt, city: city.Name}
		}
	}
}

func (g *geoMulticast) sim() *sim.Simulation { return g.s }

func (g *geoMulticast) setup() error {
	g.clock = vclock.NewManual(g.start)
	s, err := sim.New(sim.Options{
		Clock:             g.clock,
		Seed:              g.seed,
		MobileLink:        &netsim.Link{},
		DurableDir:        g.dir,
		PersistItems:      true,
		BrokerFanoutQueue: geoFanoutQueue,
	})
	if err != nil {
		return err
	}
	g.s = s
	s.Server.OnItem(g.hook)
	conn, err := s.Fabric.Dial("trigger-tap", s.BrokerAddress())
	if err != nil {
		return err
	}
	g.sub, err = mqtt.Connect(conn, mqtt.ClientOptions{ClientID: "trigger-tap", Clock: g.clock})
	if err != nil {
		return err
	}
	if err := g.sub.Subscribe(core.DeviceTriggerFilter(), 1, g.onTrigger); err != nil {
		return err
	}
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	for i := 0; i < n; i++ {
		host := fmt.Sprintf("gps-uplink-%d", i)
		conn, err := s.Fabric.Dial(host, s.BrokerAddress())
		if err != nil {
			return err
		}
		c, err := mqtt.Connect(conn, mqtt.ClientOptions{ClientID: host, Clock: g.clock})
		if err != nil {
			return err
		}
		g.pubs = append(g.pubs, c)
	}
	for i, u := range g.users {
		if err := s.Server.RegisterDevice(u, u+"-phone"); err != nil {
			return err
		}
		if err := s.Server.UpdateUserLocation(u, g.home[i].pt, g.home[i].city); err != nil {
			return err
		}
	}
	for _, d := range g.defs {
		ms, err := s.Server.CreateMulticastStream(d.id, geoTemplate(), d.query)
		if err != nil {
			return err
		}
		g.mcs = append(g.mcs, ms)
	}
	// Provisioning ends when the subscriber holds every initial config.
	return g.waitTriggers()
}

// waitTriggers blocks until the subscriber received every trigger the
// benchmark's membership model expects so far.
func (g *geoMulticast) waitTriggers() error {
	deadline := nanotime() + int64(stallTimeout)
	for g.chk.triggersSeen.Load()+int64(g.s.Broker.Stats().FanoutDropped) < g.chk.triggersWanted.Load() {
		if nanotime() > deadline {
			return fmt.Errorf("subscriber saw %d of %d triggers", g.chk.triggersSeen.Load(), g.chk.triggersWanted.Load())
		}
		hostSleep(100 * time.Microsecond)
	}
	return nil
}

func (g *geoMulticast) onTrigger(msg mqtt.Message) {
	t, err := core.DecodeTrigger(msg.Payload)
	if err != nil {
		g.chk.fails.add("undecodable trigger on %s: %v", msg.Topic, err)
		g.chk.triggersSeen.Add(1)
		return
	}
	switch t.Kind {
	case core.TriggerConfig:
		cfgs, err := config.DecodeStreams(t.ConfigXML)
		if err != nil || len(cfgs) != 1 {
			g.chk.fails.add("config trigger for %s: %d configs, %v", t.DeviceID, len(cfgs), err)
			break
		}
		g.chk.sawTrigger(cfgs[0].ID, true)
	case core.TriggerRemove:
		for _, id := range t.StreamIDs {
			g.chk.sawTrigger(id, false)
		}
	default:
		g.chk.fails.add("unexpected %s trigger for %s", t.Kind, t.DeviceID)
	}
	g.chk.triggersSeen.Add(1)
}

func (g *geoMulticast) hook(it core.Item) {
	if g.rec.traced() != nil {
		g.capture.add(it)
	}
	g.chk.observe(it)
	g.rec.arrive(causeStep)
}

func (g *geoMulticast) lost() int64 {
	return int64(g.s.Server.Stats().Pipeline.Dropped) + g.chk.publishErrs.Load() +
		int64(g.s.Broker.Stats().FanoutDropped)
}

func (g *geoMulticast) warmup() error {
	for i := 0; i < 3; i++ {
		if _, err := g.round(); err != nil {
			return err
		}
	}
	return nil
}

// round moves one batch of distinct users, uploads their fixes at QoS 1
// and waits until every item was processed and every trigger it caused
// reached the subscriber.
func (g *geoMulticast) round() (int64, error) {
	l := g.rec.traced()
	moved := g.rng.Perm(len(g.users))[:geoBatch]
	sort.Ints(moved)
	now := g.clock.Now()
	type upload struct {
		topic   string
		payload []byte
	}
	perClient := make([][]upload, len(g.pubs))
	for _, idx := range moved {
		city := g.chk.last[idx].city
		c := 0
		for g.cities[c].Name != city {
			c++
		}
		if g.rng.Float64() >= geoStayProb {
			c = (c + 1 + g.rng.Intn(len(g.cities)-1)) % len(g.cities)
		}
		f := g.randomFix(c)
		g.chk.move(idx, f)
		u := g.users[idx]
		raw, err := json.Marshal(sensors.LocationReading{Lat: f.pt.Lat, Lon: f.pt.Lon, AccuracyM: 5, FixSeconds: 2})
		if err != nil {
			return 0, err
		}
		item := core.Item{StreamID: u + "/gps", DeviceID: u + "-phone", UserID: u,
			Modality: sensors.ModalityLocation, Granularity: core.GranularityRaw, Time: now, Raw: raw}
		payload, err := item.Encode()
		if err != nil {
			return 0, err
		}
		k := idx % len(g.pubs)
		perClient[k] = append(perClient[k], upload{core.StreamDataTopic(u + "-phone"), payload})
	}

	g.rec.begin(causeStep, geoBatch)
	var wg sync.WaitGroup
	for k, ups := range perClient {
		wg.Add(1)
		go func(c *mqtt.Client, ups []upload) {
			defer wg.Done()
			for _, up := range ups {
				t0 := nanotime()
				err := c.Publish(up.topic, up.payload, 1, false)
				if l != nil {
					g.pubWaitNs.Add(nanotime() - t0)
					g.publishes.Add(1)
				}
				if err != nil {
					g.chk.publishErrs.Add(1)
					g.chk.fails.add("publish to %s: %v", up.topic, err)
				}
			}
		}(g.pubs[k], ups)
	}
	wg.Wait()
	if l != nil {
		if b := g.s.Server.Stats().Pipeline.Backlog; b > g.backlogMax {
			g.backlogMax = b
		}
	}
	if err := g.rec.wait(g.lost); err != nil {
		return geoBatch, err
	}
	if err := g.drain(); err != nil {
		return geoBatch, err
	}
	if err := g.waitTriggers(); err != nil {
		return geoBatch, err
	}
	g.rec.endCause(causeStep, "batch.publish")
	t0 := nanotime()
	g.clock.Advance(geoStep)
	if l != nil {
		g.advanceNs += nanotime() - t0
		g.advances++
	}
	return geoBatch, nil
}

// drain waits until the ingest pipeline finished every accepted item,
// multicast refreshes included (they run after the item hook).
func (g *geoMulticast) drain() error {
	deadline := nanotime() + int64(stallTimeout)
	for {
		st := g.s.Server.Stats().Pipeline
		if st.Processed >= st.Enqueued {
			return nil
		}
		if nanotime() > deadline {
			return fmt.Errorf("ingest did not drain: %d of %d processed", st.Processed, st.Enqueued)
		}
		hostSleep(100 * time.Microsecond)
	}
}

func (g *geoMulticast) check() []string {
	for i, ms := range g.mcs {
		g.chk.checkMembers(g.defs[i].id, ms.Members())
	}
	for i, u := range g.users {
		pt, city, err := g.s.Server.UserLocation(u)
		if err != nil {
			g.chk.fails.add("location of %s: %v", u, err)
			continue
		}
		g.chk.checkLocation("registry", i, pt, city)
	}
	g.chk.checkTriggers()
	// Reopen the journal after a clean shutdown: it must recover the same
	// locations.
	g.close()
	store, _, err := docstore.OpenDurable(filepath.Join(g.dir, "docstore"), docstore.DurableOptions{})
	if err != nil {
		g.chk.fails.add("reopen journal: %v", err)
		return g.chk.fails.list()
	}
	defer store.Close()
	users := store.Collection("users")
	for i, u := range g.users {
		doc, err := users.Get(u)
		if err != nil {
			g.chk.fails.add("journal lost user %s: %v", u, err)
			continue
		}
		loc, _ := doc["loc"].(map[string]any)
		lat, _ := loc["lat"].(float64)
		lon, _ := loc["lon"].(float64)
		city, _ := doc["city"].(string)
		g.chk.checkLocation("reopened journal", i, geo.Point{Lat: lat, Lon: lon}, city)
	}
	return g.chk.fails.list()
}

func (g *geoMulticast) layers(l *spanLog, m metrics) error {
	m.set("sim.advance_us_per_step", float64(g.advanceNs)/1e3/float64(max(g.advances, 1)), "us")
	m.set("sim.frame_ticks", 0, "count")
	m.set("sim.items_published", 0, "count")
	m.set("vclock.waiters", float64(g.clock.Waiters()), "count")
	m.set("ingest.backlog_max", float64(g.backlogMax), "count")
	m.set("mqtt.publish_wait_us", float64(g.pubWaitNs.Load())/1e3/float64(max(g.publishes.Load(), 1)), "us")
	m.set("osn.actions", 0, "count")

	items := g.capture.snapshot()
	locs := make(map[string]fix, len(g.users))
	for i, u := range g.users {
		locs[u] = g.chk.last[i]
	}
	return replayLayers(l, m, replaySpec{
		items:      items,
		users:      g.users,
		locations:  locs,
		multicasts: g.defs,
		durable:    filepath.Join(g.dir, "replay"),
		persist:    true,
		triggers:   configTriggers(g.users, g.defs),
		actions:    syntheticActions(g.users, g.seed, g.start),
		clock:      g.start,
		wildcard:   true,
		qos:        1,
	})
}

func (g *geoMulticast) close() {
	for _, c := range g.pubs {
		_ = c.Close()
	}
	g.pubs = nil
	if g.sub != nil {
		_ = g.sub.Close()
		g.sub = nil
	}
	if g.s != nil {
		g.s.Close()
		g.s = nil
	}
}
