package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/classify"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/core/server"
	"repro/internal/geo"
	"repro/internal/mqtt"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/osn"
	"repro/internal/sensors"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// replaySpec is a workload's captured inputs and deployment shape. Each
// layer replays alone on it, through the layer's public entry point.
type replaySpec struct {
	items []core.Item // items the traced phase delivered
	users []string    // registered users; each owns "<user>-phone"
	// locations provisions users' positions before the ingest replay.
	locations map[string]fix
	// streams are recorded through CreateRemoteStream, like the run did.
	streams []core.StreamConfig
	// multicasts are created in the replay deployment; workloads without
	// multicasts get geoMulticasts after the ingest replay, so refresh and
	// registry queries are measured on every workload.
	multicasts []mcDef
	durable    string // non-empty: the replay deployment journals here
	persist    bool
	triggers   []core.Trigger
	actions    []osn.Action
	clock      time.Time
	// deviceSessions gives every user's device a session subscribed to its
	// trigger topic, as the full-mode devices hold in the run; wildcard
	// adds the one subscriber on every device trigger.
	deviceSessions bool
	wildcard       bool
	qos            byte
}

// replayOps is the minimum number of operations a timed replay loop runs,
// cycling over its inputs.
const replayOps = 20000

// timeLoop runs fn(i) for i in [0, n) and returns ns and allocations per
// call.
func timeLoop(n int, fn func(i int)) (nsPer, allocsPer float64) {
	runtime.GC()
	m0 := memStats()
	t0 := nanotime()
	for i := 0; i < n; i++ {
		fn(i)
	}
	ns := nanotime() - t0
	m1 := memStats()
	return float64(ns) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func replayLayers(l *spanLog, m metrics, spec replaySpec) error {
	if len(spec.items) == 0 {
		return fmt.Errorf("no items captured for the layer replays")
	}
	payloads := make([][]byte, len(spec.items))
	var bytes int
	for i, it := range spec.items {
		p, err := it.Encode()
		if err != nil {
			return err
		}
		payloads[i] = p
		bytes += len(p)
	}
	m.set("core.item_bytes", float64(bytes)/float64(len(payloads)), "B")
	n := max(replayOps, len(spec.items))

	l.record("replay.codec", func() {
		ns, allocs := timeLoop(n, func(i int) { _, _ = spec.items[i%len(spec.items)].Encode() })
		m.set("core.encode_ns", ns, "ns")
		m.set("core.encode_allocs", allocs, "count")
		ns, allocs = timeLoop(n, func(i int) { _, _ = core.DecodeItem(payloads[i%len(payloads)]) })
		m.set("core.decode_ns", ns, "ns")
		m.set("core.decode_allocs", allocs, "count")
		ns, _ = timeLoop(n, func(i int) { _, _ = spec.triggers[i%len(spec.triggers)].Encode() })
		m.set("core.trigger_encode_ns", ns, "ns")
	})

	var err error
	l.record("replay.netsim", func() { err = replayNetsim(m, payloads, spec.clock) })
	if err != nil {
		return fmt.Errorf("netsim replay: %w", err)
	}
	l.record("replay.mqtt", func() { err = replayBroker(m, spec, payloads) })
	if err != nil {
		return fmt.Errorf("broker replay: %w", err)
	}
	l.record("replay.ingest", func() { err = replayServer(l, m, spec) })
	if err != nil {
		return fmt.Errorf("server replay: %w", err)
	}
	l.record("replay.classify", func() { err = replayClassify(m, spec.clock) })
	if err != nil {
		return fmt.Errorf("classify replay: %w", err)
	}
	l.record("replay.osn", func() { err = replayOSN(m, spec) })
	if err != nil {
		return fmt.Errorf("osn replay: %w", err)
	}
	return nil
}

// replayNetsim times conn.Write of the captured payloads on a fresh
// zero-latency fabric connection whose peer drains everything.
func replayNetsim(m metrics, payloads [][]byte, start time.Time) error {
	fab := netsim.NewNetwork(vclock.NewManual(start), 1)
	defer fab.Close()
	ln, err := fab.Listen("replay:1")
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := ln.Accept()
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, c)
	}()
	conn, err := fab.Dial("replay-client", "replay:1")
	if err != nil {
		return err
	}
	var werr error
	ns, _ := timeLoop(max(replayOps, len(payloads)), func(i int) {
		if _, err := conn.Write(payloads[i%len(payloads)]); err != nil && werr == nil {
			werr = err
		}
	})
	_ = conn.Close()
	_ = ln.Close()
	wg.Wait()
	m.set("netsim.write_ns", ns, "ns")
	return werr
}

// replayBroker routes the captured items through Broker.PublishLocal on a
// fresh broker holding the run's subscriptions, and times QoS 1 publishes
// from one client where the run itself published at QoS 0.
func replayBroker(m metrics, spec replaySpec, payloads [][]byte) error {
	clock := vclock.NewManual(spec.clock)
	fab := netsim.NewNetwork(clock, 1)
	defer fab.Close()
	b := mqtt.NewBroker(mqtt.BrokerOptions{Clock: clock, Metrics: obs.NewRegistry()})
	ln, err := fab.Listen("replay:1883")
	if err != nil {
		return err
	}
	var serve sync.WaitGroup
	serve.Add(1)
	go func() {
		defer serve.Done()
		_ = b.Serve(ln)
	}()
	defer func() {
		_ = ln.Close()
		_ = b.Close()
		serve.Wait()
	}()
	noop := func(mqtt.Message) {}
	if err := b.SubscribeLocal(core.StreamDataFilter(), noop); err != nil {
		return err
	}
	var clients []*mqtt.Client
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	connect := func(id string) (*mqtt.Client, error) {
		conn, err := fab.Dial(id, "replay:1883")
		if err != nil {
			return nil, err
		}
		c, err := mqtt.Connect(conn, mqtt.ClientOptions{ClientID: id, Clock: clock})
		if err != nil {
			return nil, err
		}
		clients = append(clients, c)
		return c, nil
	}
	if spec.deviceSessions {
		for _, u := range spec.users {
			c, err := connect(u + "-phone")
			if err != nil {
				return err
			}
			if err := c.Subscribe(core.DeviceTriggerTopic(u+"-phone"), 1, noop); err != nil {
				return err
			}
		}
	}
	if spec.wildcard {
		c, err := connect("trigger-tap")
		if err != nil {
			return err
		}
		if err := c.Subscribe(core.DeviceTriggerFilter(), 1, noop); err != nil {
			return err
		}
	}
	msgs := make([]mqtt.Message, len(spec.items))
	for i, it := range spec.items {
		msgs[i] = mqtt.Message{Topic: core.StreamDataTopic(it.DeviceID), Payload: payloads[i], QoS: spec.qos}
	}
	var rerr error
	ns, _ := timeLoop(max(replayOps, len(msgs)), func(i int) {
		if err := b.PublishLocal(msgs[i%len(msgs)]); err != nil && rerr == nil {
			rerr = err
		}
	})
	if rerr != nil {
		return rerr
	}
	m.set("mqtt.route_ns", ns, "ns")
	if _, ok := m["mqtt.publish_wait_us"]; !ok {
		pub, err := connect("replay-publisher")
		if err != nil {
			return err
		}
		k := min(len(msgs), 4000)
		var perr error
		ns, _ := timeLoop(k, func(i int) {
			if err := pub.Publish(msgs[i].Topic, msgs[i].Payload, 1, false); err != nil && perr == nil {
				perr = err
			}
		})
		if perr != nil {
			return perr
		}
		m.set("mqtt.publish_wait_us", ns/1e3, "us")
	}
	return nil
}

// replayServer ingests the captured items into a fresh deployment with the
// run's users, streams and multicasts, then times multicast refresh and the
// registry queries on the state that leaves.
func replayServer(l *spanLog, m metrics, spec replaySpec) error {
	clock := vclock.NewManual(spec.clock)
	s, err := sim.New(sim.Options{
		Clock:        clock,
		Seed:         1,
		MobileLink:   &netsim.Link{},
		DurableDir:   spec.durable,
		PersistItems: spec.persist,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	var processed atomic.Int64
	s.Server.OnItem(func(core.Item) { processed.Add(1) })
	for _, u := range spec.users {
		if err := s.Server.RegisterDevice(u, u+"-phone"); err != nil {
			return err
		}
		if f, ok := spec.locations[u]; ok {
			if err := s.Server.UpdateUserLocation(u, f.pt, f.city); err != nil {
				return err
			}
		}
	}
	for _, cfg := range spec.streams {
		if err := s.Server.CreateRemoteStream(cfg); err != nil {
			return err
		}
	}
	var mcs []*server.MulticastStream
	create := func(defs []mcDef) error {
		for _, d := range defs {
			ms, err := s.Server.CreateMulticastStream(d.id, geoTemplate(), d.query)
			if err != nil {
				return err
			}
			mcs = append(mcs, ms)
		}
		return nil
	}
	if err := create(spec.multicasts); err != nil {
		return err
	}

	// Ingest in chunks no larger than one shard queue, waiting for each to
	// finish, so the bounded queues never overflow.
	const chunk = 1024
	t0 := nanotime()
	for lo := 0; lo < len(spec.items); lo += chunk {
		hi := min(lo+chunk, len(spec.items))
		for _, it := range spec.items[lo:hi] {
			for !s.Server.Ingest(it) {
				hostSleep(50 * time.Microsecond)
			}
		}
		deadline := nanotime() + int64(stallTimeout)
		for processed.Load() < int64(hi) {
			if nanotime() > deadline {
				return fmt.Errorf("ingest replay stalled at %d of %d items", processed.Load(), hi)
			}
			hostSleep(20 * time.Microsecond)
		}
	}
	m.set("ingest.ns_per_item", float64(nanotime()-t0)/float64(len(spec.items)), "ns")

	defs := spec.multicasts
	if len(defs) == 0 {
		defs = geoMulticasts(s.Places)
		if err := create(defs); err != nil {
			return err
		}
	}
	var rerr error
	l.record("replay.multicast", func() {
		var total int64
		const reps = 20
		for r := 0; r < reps; r++ {
			for _, ms := range mcs {
				t := nanotime()
				if err := ms.Refresh(); err != nil {
					rerr = err
					return
				}
				total += nanotime() - t
			}
		}
		m.set("multicast.refresh_us", float64(total)/1e3/float64(reps*len(mcs)), "us")
	})
	if rerr != nil {
		return rerr
	}
	l.record("replay.docstore", func() { rerr = replayRegistry(m, s, spec, defs) })
	return rerr
}

// replayRegistry times the Manager's registry queries and location writes.
func replayRegistry(m metrics, s *sim.Simulation, spec replaySpec, defs []mcDef) error {
	const reps = 200
	var near mcDef
	for _, d := range defs {
		if d.query.Kind == server.QueryNear {
			near = d
		}
	}
	var err error
	keep := func(e error) {
		if e != nil && err == nil {
			err = e
		}
	}
	ns, _ := timeLoop(reps, func(int) {
		_, e := s.Server.UsersNear(near.query.Center, near.query.RadiusMeters)
		keep(e)
	})
	m.set("docstore.users_near_us", ns/1e3, "us")
	ns, _ = timeLoop(reps, func(int) { _, e := s.Server.UsersInCity("Paris"); keep(e) })
	m.set("docstore.users_in_city_us", ns/1e3, "us")
	users := spec.users
	ns, _ = timeLoop(max(reps, 2000), func(i int) { _, e := s.Server.DevicesOf(users[i%len(users)]); keep(e) })
	m.set("docstore.devices_of_us", ns/1e3, "us")
	lyon, _ := s.Places.Lookup("Lyon")
	ns, _ = timeLoop(reps, func(i int) {
		u := users[i%len(users)]
		f, ok := spec.locations[u]
		if !ok {
			f = fix{pt: lyon.Region.Center.Offset(float64(i%1000), 45), city: "Lyon"}
		}
		keep(s.Server.UpdateUserLocation(u, f.pt, f.city))
	})
	m.set("docstore.update_location_us", ns/1e3, "us")
	return err
}

// replayClassify times the default classifier registry on generated
// accelerometer windows.
func replayClassify(m metrics, start time.Time) error {
	places := geo.EuropeanCities()
	reg, err := classify.DefaultRegistry(places)
	if err != nil {
		return err
	}
	var windows []sensors.Reading
	for i, a := range []sensors.Activity{sensors.ActivityStill, sensors.ActivityWalking, sensors.ActivityRunning} {
		profile, err := sim.StationaryProfile(places, "Lyon", sensors.WithPhases(true,
			sensors.Phase{Activity: a, Audio: sensors.AudioSilent, Duration: time.Hour}))
		if err != nil {
			return err
		}
		suite, err := sensors.NewSuite(profile, start, int64(i+1))
		if err != nil {
			return err
		}
		for k := 0; k < 16; k++ {
			r, err := suite.Sample(sensors.ModalityAccelerometer, start.Add(time.Duration(k)*time.Minute))
			if err != nil {
				return err
			}
			windows = append(windows, r)
		}
	}
	var cerr error
	ns, _ := timeLoop(3000, func(i int) {
		if _, err := reg.Classify(windows[i%len(windows)]); err != nil && cerr == nil {
			cerr = err
		}
	})
	m.set("classify.window_us", ns/1e3, "us")
	return cerr
}

// replayOSN records the workload's actions again on a fresh Facebook
// network with a zero-delay push plug-in.
func replayOSN(m metrics, spec replaySpec) error {
	clock := vclock.NewManual(spec.clock)
	graph := osn.NewGraph()
	fb, err := osn.NewNetwork("facebook", graph)
	if err != nil {
		return err
	}
	var delivered atomic.Int64
	plugin, err := osn.NewPushPlugin(fb, clock, osn.DelayModel{}, 1, func(osn.Action) { delivered.Add(1) })
	if err != nil {
		return err
	}
	defer plugin.Close()
	for _, a := range spec.actions {
		if !graph.HasUser(a.UserID) {
			if err := graph.AddUser(a.UserID); err != nil {
				return err
			}
			plugin.RegisterUser(a.UserID)
		}
	}
	var rerr error
	ns, _ := timeLoop(len(spec.actions), func(i int) {
		a := spec.actions[i]
		if _, err := fb.Record(a.UserID, a.Type, a.Text, a.Time); err != nil && rerr == nil {
			rerr = err
		}
	})
	m.set("osn.record_us", ns/1e3, "us")
	return rerr
}

// senseTriggers builds the sense triggers the captured items' users would
// receive, one per item, with an action like the ones osn-trigger records.
func senseTriggers(items []core.Item, at time.Time) []core.Trigger {
	out := make([]core.Trigger, 0, min(len(items), 2048))
	for i, it := range items[:min(len(items), 2048)] {
		a := it.Action
		if a == nil {
			a = &osn.Action{ID: fmt.Sprintf("facebook-%d", i+1), Network: "facebook", UserID: it.UserID,
				Type: osn.ActionPost, Text: "checking in", Time: at}
		}
		out = append(out, core.Trigger{Kind: core.TriggerSense, DeviceID: it.DeviceID, Action: a})
	}
	return out
}

// configTriggers builds the config triggers multicast joins push.
func configTriggers(users []string, defs []mcDef) []core.Trigger {
	var out []core.Trigger
	for i, u := range users[:min(len(users), 512)] {
		d := defs[i%len(defs)]
		cfg := geoTemplate()
		cfg.ID, cfg.DeviceID, cfg.UserID, cfg.Deliver = d.id+"/"+u+"-phone", u+"-phone", u, core.DeliverServer
		xml, err := config.EncodeStreams([]core.StreamConfig{cfg})
		if err != nil {
			continue
		}
		out = append(out, core.Trigger{Kind: core.TriggerConfig, DeviceID: cfg.DeviceID, ConfigXML: xml})
	}
	return out
}

// syntheticActions is a burst of posts by the workload's users, for
// workloads that record none themselves.
func syntheticActions(users []string, seed int64, at time.Time) []osn.Action {
	rng := rand.New(rand.NewSource(seed))
	out := make([]osn.Action, 2000)
	for i := range out {
		out[i] = osn.Action{UserID: users[rng.Intn(len(users))], Type: osn.ActionPost, Text: "checking in", Time: at}
	}
	return out
}
