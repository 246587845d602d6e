package main

import (
	"math"
	"sort"

	"repro/internal/kv"
	"repro/internal/vtime"
)

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the index sees, reported with
// tracing off. Every workload produces every one of them.
var endToEnd = []metricDef{
	{"sim_kops", "kops/s"},        // ops / worker makespan, vtime
	{"search_trim_mean_us", "us"}, // point-search latency, vtime: fastest 99%
	{"search_p999_us", "us"},      //
	{"insert_p999_us", "us"},      // insert latency, vtime
	{"host_kops", "kops/s"},       // ops / host seconds inside the program's calls
	{"alloc_bytes_per_op", "B"},   // Go heap bytes allocated per op
	{"write_amp", "ratio"},        // device bytes written (WAL included) / user bytes inserted
	{"space_amp", "ratio"},        // page-file bytes / (live records * kv.RecordSize)
	{"recover_sim_ms", "ms"},      // Forest.Recover after Sync -> Crash, vtime
	{"setup_s", "s"},              // build the stack, bulk load, warm up; host
}

// perLayer are the single-layer metrics of a traced run. A workload
// that does not exercise a layer reports it as 0.
var perLayer = []metricDef{
	{"core.tree.search_host_ns", "ns"},
	{"core.tree.scan_host_ns_per_key", "ns"},
	{"core.tree.insert_host_ns", "ns"},
	{"core.tree.flush_insert_host_us", "us"},
	{"core.tree.flushes_per_kop", "count"},
	{"core.tree.psync_writes_per_flush", "count"},
	{"core.tree.leaf_splits_per_kop", "count"},
	{"core.tree.opq_shortcut_ratio", "ratio"},
	{"core.tree.scan_p50_us", "us"},
	{"core.tree.scan_p999_us", "us"},
	{"core.forest.group_size", "count"},
	{"core.forest.gang_submits_per_kop", "count"},
	{"core.forest.vlock_wait_us_per_op", "us"},
	{"core.forest.reader_stall_us", "us"},
	{"core.rebalance.moves", "count"},
	{"core.rebalance.migrated_keys", "count"},
	{"core.rebalance.poll_sim_ms", "ms"},
	{"core.rebalance.poll_host_us", "us"},
	{"core.rebalance.adapt_gain", "ratio"},
	{"costmodel.tune_calls", "count"},
	{"costmodel.tune_host_us", "us"},
	{"costmodel.retunes_applied", "count"},
	{"bufferpool.hit_ratio", "ratio"},
	{"bufferpool.misses_per_op", "count"},
	{"bufferpool.evictions_per_kop", "count"},
	{"pagefile.pages_allocated", "count"},
	{"ssdio.sync_calls_per_op", "count"},
	{"ssdio.psync_calls_per_op", "count"},
	{"ssdio.reqs_per_psync", "count"},
	{"ssdio.io_blocked_us_per_op", "us"},
	{"ssdio.ctx_switches_per_op", "count"},
	{"wal.forces_per_kop", "count"},
	{"wal.gang_forces_per_kop", "count"},
	{"wal.bytes_per_insert", "B"},
	{"wal.replay_records", "count"},
	{"flashsim.reads_per_op", "count"},
	{"flashsim.pages_programmed_per_op", "count"},
	{"flashsim.read_us_mean", "us"},
	{"flashsim.write_us_mean", "us"},
	{"flashsim.mean_batch", "count"},
	{"vtime.sched.ctx_switches_per_op", "count"},
	{"perfbench.trace_overhead", "ratio"},
}

// quantile is the nearest-rank q-quantile of sorted samples.
func quantile[T int64 | vtime.Ticks | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func sortedCopy[T int64 | vtime.Ticks | float64](xs []T) []T {
	out := append([]T(nil), xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// ratio is a/b, or 0 when b is 0 (a layer the workload left idle).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// simMetrics are the end-to-end metrics of one run that are functions of
// the simulation alone: a seed repeats them exactly.
func simMetrics(rp *rep) map[string]float64 {
	p := rp.p
	out := map[string]float64{
		"sim_kops":       ratio(float64(p.ops), p.makespan.Seconds()) / 1e3,
		"recover_sim_ms": rp.rec.simMs / float64(rp.episodes),
	}
	// The medians are reported in the table only: on most workloads they
	// are a fixed CPU charge (2 µs for every insert the OPQ absorbs, 6 µs
	// for a search served from the buffer pool), identical on every run.
	// The trimmed mean, over the fastest 99% of samples, stands in for
	// them: it leaves out the flush stalls, whose count varies with the
	// seed and which p99.9 reports.
	for _, k := range []opKind{opSearch, opInsert, opScan} {
		lat := sortedCopy(p.lat[k])
		trim := lat[:len(lat)*99/100]
		var sum vtime.Ticks
		for _, l := range trim {
			sum += l
		}
		out[kindNames[k]+"_trim_mean_us"] = ratio(sum.Micros(), float64(len(trim)))
		out[kindNames[k]+"_p50_us"] = quantile(lat, 0.5).Micros()
		out[kindNames[k]+"_p999_us"] = quantile(lat, 0.999).Micros()
	}
	out["write_amp"] = ratio(float64(p.delta[cDevBytesWritten]), float64(len(p.lat[opInsert])*kv.RecordSize))
	out["space_amp"] = ratio(float64(p.pages*pageSize), float64(p.live*kv.RecordSize))
	return out
}

// layerMetrics derives the per-layer metrics from a traced run, the
// untraced run of the same seed, and (drift_adapt) the run with the
// adaptation thread off.
func layerMetrics(traced, untraced, static *rep) map[string]float64 {
	p := traced.p
	d := p.delta
	ops := float64(p.ops)
	kops := ops / 1e3
	eps := float64(traced.episodes) // absolute counts are per episode
	f := func(c ctr) float64 { return float64(d[c]) }
	out := map[string]float64{
		"core.tree.flushes_per_kop":        ratio(f(cFlushes), kops),
		"core.tree.psync_writes_per_flush": ratio(f(cPsyncWrites)+f(cGangedWrites), f(cFlushes)),
		"core.tree.leaf_splits_per_kop":    ratio(f(cLeafSplits), kops),
		"core.tree.opq_shortcut_ratio":     ratio(f(cOPQShortcuts), f(cSearchOps)),
		"core.forest.group_size":           ratio(f(cGroupedShards), f(cGroupFlushes)),
		"core.forest.gang_submits_per_kop": ratio(f(cGangSubmits), kops),
		"core.forest.vlock_wait_us_per_op": ratio(f(cVLockContendedNs)/1e3, ops),
		"core.rebalance.moves":             f(cMigrations) / eps,
		"core.rebalance.migrated_keys":     f(cMigratedKeys) / eps,
		"bufferpool.hit_ratio":             ratio(f(cPoolHits), f(cPoolHits)+f(cPoolMisses)),
		"bufferpool.misses_per_op":         ratio(f(cPoolMisses), ops),
		"bufferpool.evictions_per_kop":     ratio(f(cPoolEvictions), kops),
		"pagefile.pages_allocated":         float64(p.pages) / eps,
		"ssdio.sync_calls_per_op":          ratio(f(cSyncCalls), ops),
		"ssdio.psync_calls_per_op":         ratio(f(cPsyncCalls), ops),
		"ssdio.reqs_per_psync":             ratio(f(cPsyncReqs), f(cPsyncCalls)),
		"ssdio.io_blocked_us_per_op":       ratio(f(cIOTimeNs)/1e3, ops),
		"ssdio.ctx_switches_per_op":        ratio(f(cIOCtxSwitches), ops),
		"wal.forces_per_kop":               ratio(f(cWALForceWrites), kops),
		"wal.gang_forces_per_kop":          ratio(f(cWALGangForces), kops),
		"wal.bytes_per_insert":             ratio(f(cWALBytes), float64(len(p.lat[opInsert]))),
		"wal.replay_records":               float64(traced.rec.replay) / eps,
		"flashsim.reads_per_op":            ratio(f(cDevReads), ops),
		"flashsim.pages_programmed_per_op": ratio(f(cDevPagesProgrammed), ops),
		"flashsim.read_us_mean":            ratio(f(cDevReadNs)/1e3, f(cDevReads)),
		"flashsim.write_us_mean":           ratio(f(cDevWriteNs)/1e3, f(cDevWrites)),
		"flashsim.mean_batch":              ratio(f(cDevReads)+f(cDevWrites), f(cDevBatches)),
		"vtime.sched.ctx_switches_per_op":  ratio(float64(p.ctxSwitches), ops),
		"perfbench.trace_overhead":         ratio(float64(traced.p.wallNs), float64(untraced.p.wallNs)),
	}
	sim := simMetrics(traced)
	out["core.tree.scan_p50_us"] = sim["scan_p50_us"]
	out["core.tree.scan_p999_us"] = sim["scan_p999_us"]
	if static != nil {
		out["core.rebalance.adapt_gain"] = ratio(simMetrics(untraced)["sim_kops"], simMetrics(static)["sim_kops"])
	} else {
		out["core.rebalance.adapt_gain"] = 0
	}

	// Span-derived metrics: host time per call, and the reader stall, a
	// search's vtime latency minus the I/O time it was blocked on.
	byName := map[string][]*span{}
	for _, s := range traced.spans {
		byName[s.name] = append(byName[s.name], s)
	}
	hostMedian := func(name string, keep func(*span) bool, per func(*span) float64) float64 {
		var xs []float64
		for _, s := range byName[name] {
			if keep == nil || keep(s) {
				v := float64(s.hostNs())
				if per != nil {
					v /= per(s)
				}
				xs = append(xs, v)
			}
		}
		return median(xs)
	}
	out["core.tree.search_host_ns"] = hostMedian("core.Forest.Search", nil, nil)
	out["core.tree.scan_host_ns_per_key"] = hostMedian("core.Forest.RangeSearch", nil,
		func(s *span) float64 { return float64(max(s.n, 1)) })
	out["core.tree.insert_host_ns"] = hostMedian("core.Forest.Insert", nil, nil)
	out["core.tree.flush_insert_host_us"] = hostMedian("core.Forest.Insert",
		func(s *span) bool { return s.delta(cFlushes) > 0 }, nil) / 1e3
	out["core.rebalance.poll_host_us"] = hostMedian("core.Forest.AutoRebalance", nil, nil) / 1e3
	out["costmodel.tune_host_us"] = hostMedian("costmodel.TuneForest", nil, nil) / 1e3
	out["costmodel.tune_calls"] = float64(len(byName["costmodel.TuneForest"])) / eps
	out["costmodel.retunes_applied"] = float64(len(byName["core.Forest.ApplyOPQBudget"])) / eps
	var pollSim vtime.Ticks
	for _, s := range byName["core.Forest.AutoRebalance"] {
		pollSim += s.vDone - s.vStart
	}
	out["core.rebalance.poll_sim_ms"] = pollSim.Millis() / eps
	var stall vtime.Ticks
	searches := byName["core.Forest.Search"]
	for _, s := range searches {
		stall += vtime.Max(0, s.vDone-s.vStart-vtime.Ticks(s.delta(cIOTimeNs)))
	}
	out["core.forest.reader_stall_us"] = ratio(stall.Micros(), float64(len(searches)))
	return out
}
