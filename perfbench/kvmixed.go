package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/fs"
	"repro/internal/kv"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// kv-mixed: the application tier. Two tenants, each a RioFS plus KV
// store bound to its own initiator, share four one-Optane targets in
// 2-way replica sets. Four threads per tenant run YCSB-A (50% Get, 50%
// Put) over a 4 Mi-key Zipf(0.99) keyspace; the initiator block cache
// and the KV negative-lookup filter are on.
const (
	kvTenants     = 2
	kvThreads     = 4
	kvKeys        = 4 << 20
	kvTheta       = 0.99
	kvReadPct     = 50
	kvPreload     = 4096 // hottest keys written per tenant before the clock starts
	kvCacheBlocks = 1024 // per-initiator block cache: 4 MiB
	kvLimitUS     = 2000
	kvWarmup      = 2 * sim.Millisecond
	kvWin         = 2 * sim.Millisecond
	kvMainWins    = 30 // main span = 60 ms
	kvLightSpan   = 90 * sim.Millisecond
)

// kvFS is the per-tenant file-system sizing (the serve experiment's).
var kvFS = fs.Options{
	Design:        fs.RioFS,
	Journals:      4,
	JournalBlocks: 2048,
	MaxInodes:     1 << 14,
	DataBlocks:    1 << 20,
}

type kvMixed struct {
	*base
	dbs   []*kv.DB
	known [][]uint64 // per tenant: bitset of keys preloaded or Put
	zipf  *workload.Zipf
	rng   *rand.Rand
}

func (k *kvMixed) rig() *base { return k.base }

// kvKey renders rank r as a fixed-width 16-digit key (rank 0 = hottest).
func kvKey(r uint64) string {
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = byte('0' + r%10)
		r /= 10
	}
	return string(b[:])
}

func (k *kvMixed) isKnown(ten int, r uint64) bool { return k.known[ten][r/64]&(1<<(r%64)) != 0 }
func (k *kvMixed) setKnown(ten int, r uint64)     { k.known[ten][r/64] |= 1 << (r % 64) }

func buildKVMixed(o runOpts) scenario {
	t0 := time.Now()
	k := &kvMixed{base: newBase(o)}
	cfg := stack.DefaultConfig(stack.ModeRio, stack.OptaneTarget(), stack.OptaneTarget(),
		stack.OptaneTarget(), stack.OptaneTarget())
	cfg.Initiators = kvTenants
	cfg.Replicas = 2
	cfg.Streams = kvThreads
	cfg.QPs = kvThreads
	cfg.Fabric.NumQPs = kvThreads
	cfg.CacheBlocks = kvCacheBlocks
	cfg.Seed = o.seed
	cfg.Trace = clusterTrace(o.traced)
	k.setup.cluster = timed(func() { k.c = stack.New(k.eng, cfg) })

	k.dbs = make([]*kv.DB, kvTenants)
	k.known = make([][]uint64, kvTenants)
	kvOpts := kv.Options{NegativeLookup: true}
	k.setup.mount = timed(func() {
		for ten := 0; ten < kvTenants; ten++ {
			k.eng.Go(fmt.Sprintf("perfbench/mount%d", ten), func(p *sim.Proc) {
				opts := kvFS
				opts.BaseLBA = uint64(ten) * kvFS.Blocks()
				db, err := kv.Open(p, fs.Open(k.c.Init(ten), opts), kvOpts)
				if err != nil {
					k.fail.add(1, "tenant %d: kv.Open: %v", ten, err)
					return
				}
				k.dbs[ten] = db
				k.known[ten] = make([]uint64, kvKeys/64)
			})
		}
		k.eng.Run()
	})
	k.setup.preload = timed(func() {
		for ten, db := range k.dbs {
			if db == nil {
				continue
			}
			k.eng.Go(fmt.Sprintf("perfbench/preload%d", ten), func(p *sim.Proc) {
				vs := db.Options().ValueSize
				for r := uint64(0); r < kvPreload; r++ {
					if err := db.Put(p, int(r)%kvThreads, kvKey(r), vs); err != nil {
						k.fail.add(1, "tenant %d: preload Put: %v", ten, err)
						return
					}
					k.setKnown(ten, r)
				}
			})
		}
		k.eng.Run()
	})
	k.setup.zipf = timed(func() { k.zipf = workload.NewZipf(k.eng.Rand(), kvKeys, kvTheta) })
	k.rng = k.eng.Rand()
	k.app = k.appStats
	k.setup.total = time.Since(t0)
	return k
}

func (k *kvMixed) appStats() appStats {
	var a appStats
	for _, db := range k.dbs {
		if db == nil {
			continue
		}
		f, s := db.FS().Stats(), db.Stats()
		a.fsyncs += f.Fsyncs
		a.commits += f.Commits
		a.checkpoints += f.Checkpoints
		a.puts += s.Puts
		a.gets += s.Gets
		a.negHits += s.NegativeHits
		a.walBytes += s.WALBytes
		a.comps += s.Compactions
	}
	return a
}

// clients starts threads YCSB clients per listed tenant. A Get of a key
// the benchmark knows was written must find it; a Put must not fail.
// Every op counts toward throughput, but only Puts are timed: Gets are
// answered in 1-2 us by the negative-lookup filter or the memtable,
// Puts take tens of us (WAL append plus fsync), so with half the ops of
// each kind the all-op median sits on the boundary between the classes
// and flips between them from seed to seed. Gets are timed per layer
// (kv.get_us).
func (k *kvMixed) clients(tenants []int, threads int) *closedGen {
	g := &closedGen{live: len(tenants) * threads}
	for _, ten := range tenants {
		db := k.dbs[ten]
		for th := 0; th < threads; th++ {
			k.eng.Go(fmt.Sprintf("perfbench/kv%d.%d", ten, th), func(p *sim.Proc) {
				defer func() { g.live-- }()
				if db == nil {
					return
				}
				vs := db.Options().ValueSize
				for !g.stop {
					r := k.zipf.Next()
					key := kvKey(r)
					id := k.spans.op()
					t0 := p.Now()
					k.m.attempt()
					if k.rng.Intn(100) < kvReadPct {
						known := k.isKnown(ten, r)
						found := db.Get(p, key)
						k.spans.add("kv.get", id, t0, p.Now())
						if known && !found {
							k.fail.add(1, "tenant %d: Get(%s) missed a written key", ten, key)
						}
						k.m.count()
						continue
					}
					if err := db.Put(p, th, key, vs); err != nil {
						k.fail.add(1, "tenant %d: Put(%s): %v", ten, key, err)
						return
					}
					k.spans.add("kv.put", id, t0, p.Now())
					k.setKnown(ten, r)
					k.m.record(p.Now() - t0)
				}
			})
		}
	}
	return g
}

func (k *kvMixed) run(hw *hostWindows) *outcome {
	o := &outcome{limitUS: kvLimitUS, warmup: k.dur(kvWarmup), hostWin: k.dur(kvWin)}

	light := k.clients([]int{0}, 1)
	k.advance(k.dur(kvWarmup))
	_, s0, s1 := k.measureSpan(1, k.dur(kvLightSpan), nil)
	o.points = append(o.points, newPoint("light", 1, &k.m, s1-s0))
	k.stopClosed(light)

	k.clients(indices(kvTenants), kvThreads)
	k.advance(k.dur(kvWarmup))
	k.spans.clearDurs()
	o.delta, o.start, o.end = k.measureSpan(kvMainWins, k.dur(kvWin), hw)
	o.spans = k.spans.takeDurs()
	o.main = len(o.points)
	o.points = append(o.points, newPoint("full", kvTenants*kvThreads, &k.m, o.end-o.start))
	o.userBlocks = float64(o.delta.app.walBytes) / 4096
	for i := range o.points {
		o.points[i].Pass = o.points[i].P99US <= o.limitUS
	}
	if o.delta.rc.Evictions == 0 {
		k.fail.add(1, "workload shape: the block cache saw no evictions (cache not smaller than the footprint)")
	}
	k.fail.add(int64(k.c.OrderAudit()), "OrderAudit violations")
	return o
}

func (k *kvMixed) extend(deadline time.Time, hw *hostWindows) {
	k.extendWindows(k.dur(kvWin), deadline, hw)
	k.fail.add(int64(k.c.OrderAudit()), "OrderAudit violations")
}
