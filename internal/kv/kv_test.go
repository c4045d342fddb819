package kv

import (
	"fmt"
	"testing"

	"repro/internal/fs"
	"repro/internal/sim"
	"repro/internal/stack"
)

func testDB(seed int64) (*sim.Engine, *fs.FS, Options) {
	eng := sim.New(seed)
	scfg := stack.DefaultConfig(stack.ModeRio, stack.OptaneTarget())
	scfg.Streams = 4
	scfg.QPs = 4
	scfg.InitiatorCores = 8
	scfg.TargetCores = 8
	c := stack.New(eng, scfg)
	fcfg := fs.DefaultOptions(fs.RioFS, 4)
	fcfg.JournalBlocks = 512
	fcfg.MaxInodes = 1 << 10
	fcfg.DataBlocks = 1 << 16
	fsys := fs.Open(c.Init(0), fcfg)
	kcfg := DefaultOptions()
	kcfg.MemtableBytes = 64 << 10 // small: exercise flush
	return eng, fsys, kcfg
}

func TestPutGet(t *testing.T) {
	eng, fsys, cfg := testDB(1)
	eng.Go("app", func(p *sim.Proc) {
		db, err := Open(p, fsys, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 20; i++ {
			if err := db.Put(p, 0, fmt.Sprintf("key%04d", i), cfg.ValueSize); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < 20; i++ {
			if !db.Get(p, fmt.Sprintf("key%04d", i)) {
				t.Errorf("key%04d missing", i)
			}
		}
		if db.Get(p, "absent") {
			t.Error("phantom key")
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestMemtableFlushCreatesSST(t *testing.T) {
	eng, fsys, cfg := testDB(2)
	cfg.MemtableBytes = 8 << 10 // ~8 puts per memtable
	var db *DB
	eng.Go("app", func(p *sim.Proc) {
		var err error
		db, err = Open(p, fsys, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 64; i++ {
			db.Put(p, 0, fmt.Sprintf("k%06d", i), cfg.ValueSize)
		}
	})
	eng.Run()
	if db.Stats().Flushes == 0 {
		t.Fatal("memtable never flushed")
	}
	if db.Stats().SSTFiles == 0 {
		t.Fatal("no SST files created")
	}
	// All keys still readable after flushes.
	eng.Go("check", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			if !db.Get(p, fmt.Sprintf("k%06d", i)) {
				t.Errorf("k%06d lost after flush", i)
			}
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestCompactionTriggers(t *testing.T) {
	eng, fsys, cfg := testDB(3)
	cfg.MemtableBytes = 4 << 10
	cfg.MaxL0Files = 2
	var db *DB
	eng.Go("app", func(p *sim.Proc) {
		var err error
		db, err = Open(p, fsys, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 80; i++ {
			db.Put(p, 0, fmt.Sprintf("k%06d", i%40), cfg.ValueSize)
		}
	})
	eng.Run()
	if db.Stats().Compactions == 0 {
		t.Fatal("compaction never ran")
	}
	eng.Go("check", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			if !db.Get(p, fmt.Sprintf("k%06d", i)) {
				t.Errorf("k%06d lost after compaction", i)
			}
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestGetDuringCompaction: a Get blocks on SST reads while concurrent
// flushes compact L0 into L1 under it; the scan must keep to the file
// set it started with instead of indexing the replaced one.
func TestGetDuringCompaction(t *testing.T) {
	eng, fsys, cfg := testDB(5)
	cfg.MemtableBytes = 8 << 10
	cfg.MaxL0Files = 4
	var db *DB
	eng.Go("open", func(p *sim.Proc) {
		var err error
		if db, err = Open(p, fsys, cfg); err != nil {
			t.Error(err)
			return
		}
		for w := 0; w < 2; w++ {
			eng.Go(fmt.Sprintf("writer%d", w), func(p *sim.Proc) {
				for i := 0; i < 400; i++ {
					db.Put(p, w, fmt.Sprintf("w%d-%06d", w, i), cfg.ValueSize)
				}
			})
		}
		for r := 0; r < 4; r++ {
			eng.Go(fmt.Sprintf("reader%d", r), func(p *sim.Proc) {
				for i := 0; i < 2000; i++ {
					db.Get(p, "w0-000000")
				}
			})
		}
	})
	eng.Run()
	eng.Shutdown()
	if db == nil {
		t.Fatal("open failed")
	}
	if db.Stats().Compactions == 0 {
		t.Fatal("no compaction ran under the readers")
	}
}

func TestWALSurvivesCrash(t *testing.T) {
	eng, fsys, cfg := testDB(4)
	c := fsys.Cluster()
	acked := 0
	eng.Go("app", func(p *sim.Proc) {
		db, err := Open(p, fsys, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 50; i++ {
			if err := db.Put(p, 0, fmt.Sprintf("k%04d", i), cfg.ValueSize); err != nil {
				return
			}
			acked++
			if i == 24 {
				c.PowerCutAll()
				return
			}
		}
	})
	eng.Run()
	if acked == 0 {
		t.Fatal("no puts acknowledged before crash")
	}
	eng.Go("recover", func(p *sim.Proc) {
		c.RecoverFull(p)
		fcfg := fs.DefaultOptions(fs.RioFS, 4)
		fcfg.JournalBlocks = 512
		fcfg.MaxInodes = 1 << 10
		fcfg.DataBlocks = 1 << 16
		fs2, _ := fs.Remount(p, c.Init(0), fcfg)
		n, err := RecoverCount(p, fs2, cfg)
		if err != nil {
			t.Errorf("WAL lost: %v", err)
			return
		}
		// Every acknowledged (fsynced) put must be in the recovered WAL.
		if n < acked {
			t.Errorf("recovered %d WAL records, want >= %d acknowledged", n, acked)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestMultiThreadedPuts(t *testing.T) {
	eng, fsys, cfg := testDB(5)
	var db *DB
	eng.Go("open", func(p *sim.Proc) {
		var err error
		db, err = Open(p, fsys, cfg)
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if db == nil {
		t.Fatal("open failed")
	}
	const threads, per = 4, 10
	done := 0
	for w := 0; w < threads; w++ {
		w := w
		eng.Go("put", func(p *sim.Proc) {
			for i := 0; i < per; i++ {
				if err := db.Put(p, w, fmt.Sprintf("w%dk%04d", w, i), cfg.ValueSize); err != nil {
					t.Error(err)
					return
				}
			}
			done++
		})
	}
	eng.Run()
	if done != threads {
		t.Fatalf("done = %d", done)
	}
	if db.Stats().Puts != threads*per {
		t.Fatalf("puts = %d", db.Stats().Puts)
	}
	eng.Shutdown()
}
