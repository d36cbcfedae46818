package noc

import (
	"slices"
	"testing"

	"repro/internal/sim"
)

// refRoute is the reference route walk: one hop per iteration, choosing
// the next link with a switch on the remaining X/Y distance and queueing
// behind a busy link with a branch. Mesh.route must reserve the same links
// at the same cycles and account the same statistics.
func refRoute(m *Mesh, now sim.Time, src, dst int, class Class, flits int) sim.Time {
	sx, sy := m.xy(src)
	dx, dy := m.xy(dst)
	t := now + m.cfg.RouterStages
	var queueing sim.Time
	hops := 0
	x, y := sx, sy
	for x != dx || y != dy {
		var link int
		switch {
		case x < dx:
			link = m.linkIndex(y*m.cfg.Width+x, dirEast)
			x++
		case x > dx:
			link = m.linkIndex(y*m.cfg.Width+x, dirWest)
			x--
		case y < dy:
			link = m.linkIndex(y*m.cfg.Width+x, dirSouth)
			y++
		default:
			link = m.linkIndex(y*m.cfg.Width+x, dirNorth)
			y--
		}
		depart := t
		if m.linkFree[link] > depart {
			queueing += m.linkFree[link] - depart
			depart = m.linkFree[link]
		}
		m.linkFree[link] = depart + sim.Time(flits)*m.cfg.LinkCycles
		t = depart + m.cfg.LinkCycles + m.cfg.RouterStages
		hops++
	}
	t += sim.Time(flits-1) * m.cfg.LinkCycles
	m.stats.RouterTraversal[class] += uint64(flits) * uint64(hops+1)
	m.stats.TotalLatency += uint64(t - now)
	m.stats.QueueingDelay += uint64(queueing)
	return t
}

// TestRouteMatchesReference drives Mesh.route and refRoute with the same
// random traffic on random meshes (always including the 16x16 machine),
// each starting from the same random link-reservation state, and requires
// identical delivery times, link reservations and statistics after every
// message.
func TestRouteMatchesReference(t *testing.T) {
	rng := sim.NewRNG(0x5eed)
	for trial := 0; trial < 60; trial++ {
		cfg := Config{
			Width:        1 + rng.Intn(16),
			Height:       1 + rng.Intn(16),
			RouterStages: sim.Time(1 + rng.Intn(5)),
			LinkCycles:   sim.Time(1 + rng.Intn(3)),
			LocalCycles:  1,
		}
		if trial == 0 {
			cfg.Width, cfg.Height = 16, 16
		}
		nodes := cfg.Width * cfg.Height
		if nodes < 2 {
			continue
		}
		got, want := New(cfg, sim.NewEngine()), New(cfg, sim.NewEngine())
		now := sim.Time(rng.Intn(1000))
		for i := range got.linkFree {
			// About half the links start busy past now, so both the
			// queueing and the free-link case occur on most routes.
			got.linkFree[i] = sim.Time(rng.Intn(2 * int(now+50)))
		}
		copy(want.linkFree, got.linkFree)

		for msg := 0; msg < 300; msg++ {
			src := rng.Intn(nodes)
			dst := rng.Intn(nodes - 1)
			if dst >= src {
				dst++
			}
			class := Class(rng.Intn(int(numClasses)))
			flits := 1 + rng.Intn(5)
			now += sim.Time(rng.Intn(8))

			tg := got.route(now, src, dst, class, flits)
			tw := refRoute(want, now, src, dst, class, flits)
			if tg != tw {
				t.Fatalf("%dx%d msg %d %d->%d flits %d at %d: delivery %d, reference %d",
					cfg.Width, cfg.Height, msg, src, dst, flits, now, tg, tw)
			}
			if !slices.Equal(got.linkFree, want.linkFree) {
				t.Fatalf("%dx%d msg %d %d->%d: link reservations differ from the reference",
					cfg.Width, cfg.Height, msg, src, dst)
			}
			if got.stats != want.stats {
				t.Fatalf("%dx%d msg %d %d->%d: stats %+v, reference %+v",
					cfg.Width, cfg.Height, msg, src, dst, got.stats, want.stats)
			}
		}
	}
}
