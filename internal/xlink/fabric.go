package xlink

import (
	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Fabric is the inter-socket interconnect, modelled as a graph of
// physical links between sockets and switch nodes. Messages follow
// precomputed deterministic shortest paths, paying each traversed
// link's serialization + wire latency and each switch hop's latency.
//
// A nil Config.Topology synthesizes the paper's symmetric crossbar as
// an explicit star (topo.Crossbar), whose per-message event schedule is
// byte-identical to the pre-topology hard-wired fabric. The paper's
// switch keeps total bandwidth constant; the per-port links are the
// bottleneck, so switch nodes contribute only latency.
type Fabric struct {
	eng       *sim.Engine
	top       *topo.Topology
	switchLat sim.Time

	links []*Link // one per topology link, in topology order
	ports []Port  // one per socket: its incident links
	paths [][][]pathHop

	// Pooled route walker: in-flight messages live in recs, indexed by
	// the arg threaded through the two bound handlers, so the
	// steady-state datapath allocates nothing per message.
	recs   []routeRec
	freeRl []int
	hopH   sim.Handler
	stepH  sim.Handler
}

// pathHop is one precomputed traversal: a physical link, the direction
// to cross it in, and the switch latency charged after delivery at the
// far end (hops × Config.SwitchLatency).
type pathHop struct {
	link *Link
	dir  Direction
	post sim.Time
}

// routeRec is one in-flight routed message and the continuation to
// run at its destination (a zero done runs nothing).
type routeRec struct {
	path    []pathHop
	pos     int
	size    int
	done    sim.Handler
	doneArg int
}

// NewFabric builds the fabric for a system described by cfg. It panics
// on an invalid or mismatched topology; arch.Config.Validate rejects
// those earlier on every external input path.
func NewFabric(eng *sim.Engine, cfg arch.Config) *Fabric {
	t := cfg.Topology
	synthesized := t == nil
	if synthesized {
		t = topo.Crossbar(cfg.Sockets, cfg.LanesPerDir, cfg.LaneBandwidth, cfg.LinkLatency)
	} else if err := t.Validate(); err != nil {
		panic(err)
	} else if len(t.Sockets) != cfg.Sockets {
		panic("xlink: topology socket count does not match Config.Sockets")
	}
	f := &Fabric{eng: eng, top: t, switchLat: sim.Time(cfg.SwitchLatency)}
	f.hopH = eng.Bind(f.hopDone)
	f.stepH = eng.Bind(f.step)

	for _, ls := range t.Links {
		lanesAB, lanesBA := ls.LanesAB, ls.LanesBA
		laneBW := ls.LaneBandwidth
		latAB, latBA := ls.LatencyAB, ls.LatencyBA
		if !synthesized {
			// User-supplied topologies inherit Config defaults for
			// omitted (zero) fields. The synthesized crossbar is taken
			// verbatim: its latency halves are exact, including a zero
			// half when LinkLatency is odd and small.
			if lanesAB == 0 {
				lanesAB = cfg.LanesPerDir
			}
			if lanesBA == 0 {
				lanesBA = cfg.LanesPerDir
			}
			if laneBW == 0 {
				laneBW = cfg.LaneBandwidth
			}
			if latAB == 0 {
				latAB = cfg.LinkLatency
			}
			if latBA == 0 {
				latBA = cfg.LinkLatency
			}
		}
		l := NewLinkAsym(eng, lanesAB, lanesBA, laneBW, latAB, latBA, cfg.LaneSwitchTime)
		l.name = t.NodeName(ls.A) + "-" + t.NodeName(ls.B)
		f.links = append(f.links, l)
	}

	f.buildPorts()
	f.buildPaths()
	return f
}

// Port is a socket's attachment point to the fabric: the set of
// incident physical links with their inbound direction, from which the
// cache policies read the socket's aggregate ingress capacity.
type Port struct {
	links []*Link
	inDir []Direction
}

// IngressBandwidth reports the socket's current total inbound capacity
// in bytes/cycle across all incident links.
func (p *Port) IngressBandwidth() float64 {
	var bw float64
	for i, l := range p.links {
		bw += l.Bandwidth(p.inDir[i])
	}
	return bw
}

// PortOf wraps a single directly-constructed link as a socket port with
// the link's Ingress direction inbound; unit tests use it to drive a
// Socket without a full fabric.
func PortOf(l *Link) *Port {
	return &Port{links: []*Link{l}, inDir: []Direction{Ingress}}
}

func (f *Fabric) buildPorts() {
	f.ports = make([]Port, len(f.top.Sockets))
	for li, ls := range f.top.Links {
		if ls.A < len(f.ports) {
			p := &f.ports[ls.A]
			p.links = append(p.links, f.links[li])
			p.inDir = append(p.inDir, Ingress) // B→A arrives at A
		}
		if ls.B < len(f.ports) {
			p := &f.ports[ls.B]
			p.links = append(p.links, f.links[li])
			p.inDir = append(p.inDir, Egress) // A→B arrives at B
		}
	}
}

// buildPaths precomputes the route from every socket to every socket
// with a deterministic Dijkstra: edge weight is the traversal latency
// plus its switch-hop charge; ties break toward fewer edges, then
// toward the path settled first (nodes are settled in (cost, edges, id)
// order, so equal-cost routes prefer lower-numbered nodes). Link order
// in the topology fixes the adjacency scan order, which is why it is
// part of the canonical encoding.
func (f *Fabric) buildPaths() {
	n := f.top.Nodes()
	sockets := len(f.top.Sockets)

	type dirEdge struct {
		to   int
		link *Link
		dir  Direction
		cost sim.Time
		post sim.Time
	}
	adj := make([][]dirEdge, n)
	for li, ls := range f.top.Links {
		l := f.links[li]
		postAB := sim.Time(ls.HopsAB) * f.switchLat
		postBA := sim.Time(ls.HopsBA) * f.switchLat
		adj[ls.A] = append(adj[ls.A], dirEdge{
			to: ls.B, link: l, dir: Egress,
			cost: l.srv[Egress].Latency() + postAB, post: postAB,
		})
		adj[ls.B] = append(adj[ls.B], dirEdge{
			to: ls.A, link: l, dir: Ingress,
			cost: l.srv[Ingress].Latency() + postBA, post: postBA,
		})
	}

	f.paths = make([][][]pathHop, sockets)
	const inf = sim.Time(1) << 62
	for src := 0; src < sockets; src++ {
		dist := make([]sim.Time, n)
		edges := make([]int, n)
		pred := make([]dirEdge, n)
		hasPred := make([]bool, n)
		done := make([]bool, n)
		for v := range dist {
			dist[v] = inf
		}
		dist[src] = 0
		for {
			u := -1
			for v := 0; v < n; v++ {
				if done[v] || dist[v] == inf {
					continue
				}
				if u == -1 || dist[v] < dist[u] || (dist[v] == dist[u] && edges[v] < edges[u]) {
					u = v
				}
			}
			if u == -1 {
				break
			}
			done[u] = true
			for _, e := range adj[u] {
				nc, ne := dist[u]+e.cost, edges[u]+1
				if nc < dist[e.to] || (nc == dist[e.to] && ne < edges[e.to]) {
					dist[e.to] = nc
					edges[e.to] = ne
					pred[e.to] = e
					pred[e.to].to = u // repurpose: predecessor node
					hasPred[e.to] = true
				}
			}
		}
		f.paths[src] = make([][]pathHop, sockets)
		for dst := 0; dst < sockets; dst++ {
			if dst == src {
				continue
			}
			var rev []pathHop
			for v := dst; v != src; v = pred[v].to {
				if !hasPred[v] {
					panic("xlink: no route " + f.top.NodeName(src) + "→" + f.top.NodeName(dst))
				}
				e := pred[v]
				rev = append(rev, pathHop{link: e.link, dir: e.dir, post: e.post})
			}
			path := make([]pathHop, len(rev))
			for i := range rev {
				path[i] = rev[len(rev)-1-i]
			}
			f.paths[src][dst] = path
		}
	}
}

// Reset returns every link to its built state and empties the route
// pool, keeping its storage, so records are handed out in the order of
// a fresh fabric. No message may be in flight.
func (f *Fabric) Reset() {
	for _, l := range f.links {
		l.Reset()
	}
	f.recs, f.freeRl = f.recs[:0], f.freeRl[:0]
}

// NumLinks reports the physical link count of the fabric.
func (f *Fabric) NumLinks() int { return len(f.links) }

// LinkAt returns physical link i in topology order.
func (f *Fabric) LinkAt(i int) *Link { return f.links[i] }

// Port returns socket s's attachment point.
func (f *Fabric) Port(s arch.SocketID) *Port { return &f.ports[s] }

// Topology returns the fabric's (possibly synthesized) topology.
func (f *Fabric) Topology() *topo.Topology { return f.top }

// PathLinks reports the physical link indices traversed from src to
// dst, in order; tests use it to pin deterministic path selection.
func (f *Fabric) PathLinks(src, dst arch.SocketID) []int {
	var out []int
	for _, h := range f.paths[src][dst] {
		for i, l := range f.links {
			if l == h.link {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// acquire takes a pooled route record for a size-byte message entering
// the fabric now at src, bound for dst.
func (f *Fabric) acquire(src, dst arch.SocketID, size int) int {
	var idx int
	if n := len(f.freeRl); n > 0 {
		idx = f.freeRl[n-1]
		f.freeRl = f.freeRl[:n-1]
	} else {
		f.recs = append(f.recs, routeRec{})
		idx = len(f.recs) - 1
	}
	r := &f.recs[idx]
	r.path, r.pos, r.size = f.paths[src][dst], 0, size
	return idx
}

// hopDone fires when a message finishes one link traversal: charge the
// edge's switch-hop latency, then continue the walk.
func (f *Fabric) hopDone(now sim.Time, arg int) {
	r := &f.recs[arg]
	post := r.path[r.pos].post
	r.pos++
	if post > 0 {
		f.eng.ScheduleArg(post, f.stepH, arg)
		return
	}
	f.step(now, arg)
}

// step sends the message down its next link, or delivers it.
func (f *Fabric) step(now sim.Time, arg int) {
	r := &f.recs[arg]
	if r.pos < len(r.path) {
		h := r.path[r.pos]
		h.link.SendArg(h.dir, r.size, f.hopH, arg)
		return
	}
	done, doneArg := r.done, r.doneArg
	f.freeRl = append(f.freeRl, arg)
	if done != 0 {
		f.eng.Call(done, doneArg)
	}
}

// RouteArg delivers a size-byte message from socket src to socket dst
// along the precomputed path and runs handler h with arg when it
// arrives: the core-package remote memory protocol passes its pooled
// round-trip record index through arg, so no closure is built per
// message. A zero h routes without a continuation.
func (f *Fabric) RouteArg(src, dst arch.SocketID, size int, h sim.Handler, arg int) {
	if src == dst {
		// Degenerate but legal: loopback costs only switch latency.
		if h != 0 {
			f.eng.ScheduleArg(f.switchLat, h, arg)
		}
		return
	}
	idx := f.acquire(src, dst, size)
	r := &f.recs[idx]
	r.done, r.doneArg = h, arg
	f.step(f.eng.Now(), idx)
}

// PathCost reports the unloaded latency of the precomputed src→dst
// route: the sum over its hops of link pipeline latency plus switch
// charges. Serialization and queueing only add on top (sim.Server never
// completes a transfer before its fixed latency, and the balancer
// re-points lanes without touching latencies), so PathCost is a hard
// lower bound on how fast any message can make the crossing. src == dst
// reports the loopback switch charge.
func (f *Fabric) PathCost(src, dst arch.SocketID) sim.Time {
	if src == dst {
		return f.switchLat
	}
	var c sim.Time
	for _, h := range f.paths[src][dst] {
		c += h.link.srv[h.dir].Latency() + h.post
	}
	return c
}

// ResetDesign restores every link to its design-time lane assignment
// and opens fresh sampling windows (invoked at kernel launches).
func (f *Fabric) ResetDesign(now sim.Time) {
	for _, l := range f.links {
		l.ResetDesign()
		l.ResetWindow(now)
	}
}

// TotalBytes reports lifetime bytes moved across all links in both
// directions: the quantity the Section 6 power model charges at
// 10 pJ/bit.
func (f *Fabric) TotalBytes() uint64 {
	var t uint64
	for _, l := range f.links {
		t += l.Sent[Egress].Value() + l.Sent[Ingress].Value()
	}
	return t
}
