package gpu

import (
	"reflect"
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/vmm"
)

// pairRig wires two sockets to each other through a remote bridge whose
// transport is pluggable: the serial build schedules on one flat engine,
// the sharded build crosses a lockstep ParallelEngine with SendThunk.
// Everything else — sockets, memory map, drain, workload — is identical,
// so any divergence is the parallel engine's fault.
type pairRig struct {
	engs      [2]*sim.Engine
	socks     [2]*Socket
	send      func(src, home arch.SocketID, fn func())
	drain     *Drain
	sms       int
	reads     int
	writes    int
	bulk      int
	doneTrace []doneAt
}

type doneAt struct {
	Sock arch.SocketID
	SM   int
	At   sim.Time
}

func (r *pairRig) RemoteRead(src, home arch.SocketID, l arch.LineID, done sim.ArgEvent, arg int) {
	r.reads++
	r.send(src, home, func() {
		r.socks[home].HomeRead(l, func(sim.Time, int) {
			r.send(home, src, func() { done(r.engs[src].Now(), arg) })
		}, 0)
	})
}

func (r *pairRig) RemoteWrite(src, home arch.SocketID, l arch.LineID, done sim.ArgEvent, arg int) {
	r.writes++
	r.send(src, home, func() {
		r.socks[home].HomeWrite(l, func(sim.Time, int) {
			if done != nil {
				r.send(home, src, func() { done(r.engs[src].Now(), arg) })
			}
		}, 0)
	})
}

func (r *pairRig) RemoteWriteBulk(src, home arch.SocketID, n int, done sim.ArgEvent, arg int) {
	r.bulk += n
	r.send(src, home, func() {
		r.socks[home].HomeWriteBulk(n, func(sim.Time, int) {
			if done != nil {
				r.send(home, src, func() { done(r.engs[src].Now(), arg) })
			}
		}, 0)
	})
}

const pairLookahead = sim.Time(300)

func buildPair(engs [2]*sim.Engine, send func(src, home arch.SocketID, fn func())) *pairRig {
	cfg := arch.TestConfig()
	cfg.Sockets = 2
	cfg.CacheMode = arch.CacheNUMAAware
	memMap := vmm.New(cfg.Sockets, arch.PlaceFirstTouch)
	r := &pairRig{engs: engs, send: send, drain: &Drain{}, sms: cfg.SMsPerSocket}
	for i := 0; i < 2; i++ {
		id := arch.SocketID(i)
		sock := NewSocket(engs[i], cfg, id, memMap, r, nil, r.drain, func(arch.SocketID) {})
		sock.onLoadDone = func(sm, slot int) {
			r.doneTrace = append(r.doneTrace, doneAt{Sock: id, SM: sm, At: engs[id].Now()})
		}
		r.socks[i] = sock
	}
	// Cross-homed pages: even pages live on socket 0, odd on socket 1,
	// so both directions of the bridge carry traffic.
	for p := 0; p < 64; p++ {
		memMap.Owner(arch.LineID(p*(arch.PageSize/arch.LineSize)), arch.SocketID(p%2))
	}
	return r
}

// drive issues an identical interleaved load/store pattern, local and
// remote, from both sockets.
func (r *pairRig) drive() {
	line := func(p, off int) arch.LineID {
		return arch.LineID(p*(arch.PageSize/arch.LineSize) + off)
	}
	for i := 0; i < 16; i++ {
		for s := 0; s < 2; s++ {
			sm := i % r.sms
			r.socks[s].Load(sm, []arch.LineID{line(i%8, i), line((i+1)%8, i)}, 0)
			if i%3 == 0 {
				r.socks[s].Store(sm, []arch.LineID{line(i%8, 32+i)})
			}
		}
	}
}

// TestShardedSocketPairMatchesSerial runs the rig on a flat engine and
// on a two-shard lockstep engine and demands identical completion
// traces, identical bridge/DRAM accounting, and event-count parity —
// the gpu-level half of the serial/sharded equivalence argument.
func TestShardedSocketPairMatchesSerial(t *testing.T) {
	eng := sim.New()
	serial := buildPair([2]*sim.Engine{eng, eng}, func(src, home arch.SocketID, fn func()) {
		eng.ScheduleThunk(pairLookahead, fn)
	})
	serial.drive()
	eng.Run()
	// Kernel-boundary flush pushes the write-back buffered remote dirty
	// lines across the bridge as bulk writes.
	serial.socks[0].FlushCaches()
	serial.socks[1].FlushCaches()
	eng.Run()

	pe := sim.NewLockstep(2, 1)
	pe.SetLookahead(pairLookahead)
	sharded := buildPair([2]*sim.Engine{pe.Shard(0), pe.Shard(1)}, func(src, home arch.SocketID, fn func()) {
		pe.SendThunk(int(src), int(home), pairLookahead, fn)
	})
	sharded.drive()
	pe.Run()
	sharded.socks[0].FlushCaches()
	sharded.socks[1].FlushCaches()
	pe.Run()

	if len(serial.doneTrace) == 0 {
		t.Fatal("serial rig completed no loads")
	}
	if !reflect.DeepEqual(serial.doneTrace, sharded.doneTrace) {
		t.Fatalf("completion traces diverged:\nserial:  %v\nsharded: %v", serial.doneTrace, sharded.doneTrace)
	}
	if serial.reads != sharded.reads || serial.writes != sharded.writes || serial.bulk != sharded.bulk {
		t.Fatalf("bridge accounting diverged: serial r/w/b=%d/%d/%d sharded %d/%d/%d",
			serial.reads, serial.writes, serial.bulk, sharded.reads, sharded.writes, sharded.bulk)
	}
	if serial.reads == 0 || serial.bulk == 0 {
		t.Fatal("workload produced no remote traffic — the test is vacuous")
	}
	for i := 0; i < 2; i++ {
		sr, gr := serial.socks[i].DRAM().Reads.Value(), sharded.socks[i].DRAM().Reads.Value()
		if sr != gr {
			t.Fatalf("socket %d DRAM reads diverged: %d vs %d", i, sr, gr)
		}
	}
	if eng.Executed() != pe.Executed() {
		t.Fatalf("event-count parity broken: serial %d, sharded %d", eng.Executed(), pe.Executed())
	}
	if pe.ShardExecuted(0) == 0 || pe.ShardExecuted(1) == 0 {
		t.Fatal("both shards must execute events")
	}
	if pe.CrossDelivered() == 0 {
		t.Fatal("no cross-shard sends counted")
	}
	if serial.drain.Outstanding() != 0 || sharded.drain.Outstanding() != 0 {
		t.Fatal("drain must reach zero in both builds")
	}
	for i := 0; i < 2; i++ {
		if l1, l2, rm := sharded.socks[i].DebugPending(); l1+l2+rm != 0 {
			t.Fatalf("sharded socket %d leaked MSHR entries", i)
		}
	}
}

// TestShardedSocketSubBoundSendRejected pins that a socket bridge
// wired with a delay under the engine's lookahead cannot silently run:
// the send panics at schedule time.
func TestShardedSocketSubBoundSendRejected(t *testing.T) {
	pe := sim.NewLockstep(2, 1)
	pe.SetLookahead(pairLookahead)
	rig := buildPair([2]*sim.Engine{pe.Shard(0), pe.Shard(1)}, func(src, home arch.SocketID, fn func()) {
		pe.SendThunk(int(src), int(home), pairLookahead-1, fn)
	})
	defer func() {
		if recover() == nil {
			t.Fatal("sub-bound bridge send must panic")
		}
	}()
	rig.drive()
	pe.Run()
}
