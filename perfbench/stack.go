package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/flashsim"
	"repro/internal/kv"
	"repro/internal/pagefile"
	"repro/internal/ssdio"
	"repro/internal/vtime"
	"repro/internal/wal"
)

// Engine constants, as the repository's scenario suite and figure
// regenerations use them, so the benchmark's numbers compare with theirs.
const (
	pageSize   = 2048
	cpuPerNode = 2 * vtime.Microsecond
	bcnt       = 5000
	ctxSwitch  = 3 * vtime.Microsecond
)

// stack is the layered system under test, built bottom-up so the
// benchmark holds every handle whose counters it reads:
// flashsim -> ssdio -> pagefile / wal -> core.Forest.
type stack struct {
	dev   *flashsim.Device
	space *ssdio.Space
	pfs   []*pagefile.PageFile
	logs  []*wal.Log
	files []*ssdio.File // shard page files, then logs
	fr    *core.Forest
}

func buildStack(w *workload) (*stack, error) {
	st := &stack{dev: flashsim.MustDevice(flashsim.Iodrive())}
	st.space = ssdio.NewSpace(st.dev)
	for i := 0; i < shards; i++ {
		f, err := st.space.Create(fmt.Sprintf("shard%d", i), int64(w.keys)*64/int64(shards)+1<<20)
		if err != nil {
			return nil, err
		}
		pf, err := pagefile.New(f, pageSize)
		if err != nil {
			return nil, err
		}
		st.pfs = append(st.pfs, pf)
		st.files = append(st.files, f)
	}
	for i := 0; i < shards; i++ {
		f, err := st.space.Create(fmt.Sprintf("wal%d", i), 1<<20)
		if err != nil {
			return nil, err
		}
		l, err := wal.NewLog(f, pageSize)
		if err != nil {
			return nil, err
		}
		st.logs = append(st.logs, l)
		st.files = append(st.files, f)
	}
	// Even range bounds over the loaded key domain.
	bounds := make([]kv.Key, shards-1)
	for i := range bounds {
		bounds[i] = loadedKey((i+1)*w.keys/shards) - 8
	}
	fr, err := core.NewForest(st.pfs, core.ForestConfig{
		Partitioner: core.RangePartitioner{Bounds: bounds},
		Shard: core.Config{
			PageSize:    pageSize,
			LeafSegs:    w.leafSegs,
			OPQPages:    w.opqPages,
			PioMax:      64,
			SPeriod:     5000,
			BCnt:        bcnt,
			BufferBytes: w.bufferBytes,
			CPUPerNode:  cpuPerNode,
		},
		Logs: st.logs,
	})
	if err != nil {
		return nil, err
	}
	st.fr = fr
	return st, nil
}

// loadRecords is the bulk-load input: every loaded key of the layout.
func loadRecords(n int) []kv.Record {
	recs := make([]kv.Record, n)
	for g := range recs {
		k := loadedKey(g)
		recs[g] = kv.Record{Key: k, Value: valueOf(k)}
	}
	return recs
}

// calibrate measures the cost model's device parameters on a throwaway
// device, as the adaptation loop's tuner needs them; probing the live
// device would disturb its reservation timelines.
func calibrate() *costmodel.DeviceParams {
	return costmodel.Calibrate(flashsim.MustDevice(flashsim.Iodrive()), pageSize, 16, 64, 8)
}

// ctr indexes one layer counter the benchmark reads.
type ctr int

const (
	// core.Tree (summed over shards).
	cFlushes ctr = iota
	cLeafSplits
	cPsyncReads
	cPsyncWrites
	cGangedWrites
	cSearchOps
	cUpdateOps
	cRangeOps
	cOPQShortcuts
	cIORetries
	// core.Forest.
	cGroupFlushes
	cGroupedShards
	cGangSubmits
	cLogGangSubmits
	cLogForceWrites
	cVLockWaits
	cVLockContendedNs
	cMigrations
	cMigratedKeys
	// bufferpool (summed over shards).
	cPoolHits
	cPoolMisses
	cPoolEvictions
	// ssdio (summed over every file).
	cSyncCalls
	cPsyncCalls
	cPsyncReqs
	cIOCtxSwitches
	cIOTimeNs
	// wal (summed over logs).
	cWALForceWrites
	cWALGangForces
	cWALBytes
	// flashsim.
	cDevReads
	cDevWrites
	cDevBytesRead
	cDevBytesWritten
	cDevReadNs
	cDevWriteNs
	cDevPagesRead
	cDevPagesProgrammed
	cDevBatches
	// pagefile (summed over shards).
	cPages
	numCtrs
)

var ctrNames = [numCtrs]string{
	"tree.flushes", "tree.leaf_splits", "tree.psync_reads", "tree.psync_writes",
	"tree.ganged_writes", "tree.search_ops", "tree.update_ops", "tree.range_ops",
	"tree.opq_shortcuts", "tree.io_retries",
	"forest.group_flushes", "forest.grouped_shards", "forest.gang_submits",
	"forest.log_gang_submits", "forest.log_force_writes", "forest.vlock_waits",
	"forest.vlock_contended_ns", "forest.migrations", "forest.migrated_keys",
	"bufferpool.hits", "bufferpool.misses", "bufferpool.evictions",
	"ssdio.sync_calls", "ssdio.psync_calls", "ssdio.psync_reqs",
	"ssdio.ctx_switches", "ssdio.io_time_ns",
	"wal.force_writes", "wal.gang_forces", "wal.bytes",
	"flashsim.reads", "flashsim.writes", "flashsim.bytes_read",
	"flashsim.bytes_written", "flashsim.read_ns", "flashsim.write_ns",
	"flashsim.pages_read", "flashsim.pages_programmed", "flashsim.batches",
	"pagefile.pages",
}

// counters is one reading of every layer counter.
type counters [numCtrs]int64

func (c counters) sub(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

// read takes a reading of every layer's public counters.
func (st *stack) read() counters {
	var c counters
	fs := st.fr.Stats()
	t := fs.Tree
	c[cFlushes], c[cLeafSplits] = t.Flushes, t.LeafSplits
	c[cPsyncReads], c[cPsyncWrites], c[cGangedWrites] = t.PsyncReads, t.PsyncWrites, t.GangedWrites
	c[cSearchOps], c[cUpdateOps], c[cRangeOps] = t.SearchOps, t.UpdateOps, t.RangeOps
	c[cOPQShortcuts], c[cIORetries] = t.OPQShortcuts, fs.IORetries
	c[cGroupFlushes], c[cGroupedShards], c[cGangSubmits] = fs.GroupFlushes, fs.GroupedShards, fs.GangSubmits
	c[cLogGangSubmits], c[cLogForceWrites] = fs.LogGangSubmits, fs.LogForceWrites
	c[cVLockWaits], c[cVLockContendedNs] = fs.VLockWaits, int64(fs.VLockContended)
	c[cMigrations], c[cMigratedKeys] = fs.Migrations, fs.MigratedKeys
	for i := 0; i < fs.Shards; i++ {
		ps := st.fr.ShardTree(i).Pool().Stats()
		c[cPoolHits] += ps.Hits
		c[cPoolMisses] += ps.Misses
		c[cPoolEvictions] += ps.Evictions
	}
	for _, f := range st.files {
		s := f.Stats()
		c[cSyncCalls] += s.SyncCalls
		c[cPsyncCalls] += s.PsyncCalls
		c[cPsyncReqs] += s.PsyncReqs
		c[cIOCtxSwitches] += s.CtxSwitches
		c[cIOTimeNs] += int64(s.IOTime)
	}
	for _, l := range st.logs {
		fw, gf := l.ForceStats()
		c[cWALForceWrites] += fw
		c[cWALGangForces] += gf
		c[cWALBytes] += l.LiveBytes() + l.TruncatedBytes()
	}
	d := st.dev.Stats()
	c[cDevReads], c[cDevWrites] = d.Reads, d.Writes
	c[cDevBytesRead], c[cDevBytesWritten] = d.BytesRead, d.BytesWritten
	c[cDevReadNs], c[cDevWriteNs] = int64(d.ReadTime), int64(d.WriteTime)
	c[cDevPagesRead], c[cDevPagesProgrammed], c[cDevBatches] = d.PagesRead, d.PagesProgrammed, d.Batches
	for _, pf := range st.pfs {
		c[cPages] += pf.NumPages()
	}
	return c
}
