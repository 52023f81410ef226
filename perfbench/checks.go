package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/core/server"
	"repro/internal/geo"
)

// failureLog collects failed checks; it keeps the first few messages and
// counts the rest.
type failureLog struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

const failureLogKeep = 20

func (f *failureLog) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < failureLogKeep {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *failureLog) list() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := append([]string(nil), f.msgs...)
	if f.n > len(f.msgs) {
		out = append(out, fmt.Sprintf("... and %d more", f.n-len(f.msgs)))
	}
	return out
}

// geoChecker models multicast membership from the benchmark's own fixes:
// city membership by construction of each fix, near membership by the
// benchmark's haversine. Every change it models is a trigger the wildcard
// subscriber must see: a config on a join, a remove on a departure.
type geoChecker struct {
	defs  []mcDef
	users []string
	// last and member are written by the driver goroutine only.
	last   []fix
	member [][]bool // [multicast][user]
	want   map[string][]bool

	triggersWanted atomic.Int64
	triggersSeen   atomic.Int64
	publishErrs    atomic.Int64

	mu   sync.Mutex
	seen map[string][]bool // stream id -> triggers seen, true = config

	fails failureLog
}

func newGeoChecker(defs []mcDef, users []string, home []fix) *geoChecker {
	c := &geoChecker{defs: defs, users: users, last: append([]fix(nil), home...),
		want: make(map[string][]bool), seen: make(map[string][]bool)}
	c.member = make([][]bool, len(defs))
	for d := range defs {
		c.member[d] = make([]bool, len(users))
		for u := range users {
			if c.isMember(d, home[u]) {
				c.member[d][u] = true
				c.expect(d, u, true)
			}
		}
	}
	return c
}

func (c *geoChecker) isMember(d int, f fix) bool {
	q := c.defs[d].query
	if q.Kind == server.QueryCity {
		return f.city == q.City
	}
	return haversine(f.pt, q.Center) <= q.RadiusMeters
}

func (c *geoChecker) streamID(d, u int) string {
	return c.defs[d].id + "/" + c.users[u] + "-phone"
}

func (c *geoChecker) expect(d, u int, join bool) {
	id := c.streamID(d, u)
	c.want[id] = append(c.want[id], join)
	c.triggersWanted.Add(1)
}

// move records user u's next fix and the membership changes it causes.
func (c *geoChecker) move(u int, f fix) {
	c.last[u] = f
	for d := range c.defs {
		if in := c.isMember(d, f); in != c.member[d][u] {
			c.member[d][u] = in
			c.expect(d, u, in)
		}
	}
}

func (c *geoChecker) sawTrigger(streamID string, config bool) {
	c.mu.Lock()
	c.seen[streamID] = append(c.seen[streamID], config)
	c.mu.Unlock()
}

func (c *geoChecker) observe(it core.Item) {
	if it.Modality != "location" || it.Granularity != core.GranularityRaw {
		c.fails.add("item of %s: modality %q granularity %q", it.UserID, it.Modality, it.Granularity)
	}
}

// checkMembers compares a multicast's members with the model.
func (c *geoChecker) checkMembers(id string, got []string) {
	for d, def := range c.defs {
		if def.id != id {
			continue
		}
		var want []string
		for u, in := range c.member[d] {
			if in {
				want = append(want, c.users[u])
			}
		}
		sort.Strings(want)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			c.fails.add("multicast %s has %d members, the fixes give %d (first difference %s)",
				id, len(got), len(want), firstDifference(got, want))
		}
	}
}

func firstDifference(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(got):
			return "missing " + want[i]
		case i >= len(want):
			return "extra " + got[i]
		case got[i] != want[i]:
			return got[i] + " vs " + want[i]
		}
	}
	return "none"
}

// checkLocation compares a stored location with user u's last fix.
func (c *geoChecker) checkLocation(src string, u int, pt geo.Point, city string) {
	if f := c.last[u]; pt != f.pt || city != f.city {
		c.fails.add("%s: %s at %v in %q, last fix %v in %q", src, c.users[u], pt, city, f.pt, f.city)
	}
}

// checkTriggers compares, per member stream, the triggers the subscriber
// saw with the joins and departures the model computed.
func (c *geoChecker) checkTriggers() {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make(map[string]bool, len(c.want)+len(c.seen))
	for id := range c.want {
		ids[id] = true
	}
	for id := range c.seen {
		ids[id] = true
	}
	for id := range ids {
		if got, want := c.seen[id], c.want[id]; fmt.Sprint(got) != fmt.Sprint(want) {
			c.fails.add("stream %s: triggers %s, joins and departures give %s", id, triggerKinds(got), triggerKinds(want))
		}
	}
}

func triggerKinds(seq []bool) string {
	parts := make([]string, len(seq))
	for i, config := range seq {
		parts[i] = "remove"
		if config {
			parts[i] = "config"
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}
