// Command svcbench is the steady-state benchmark of the continuous
// metascheduler service. It builds each world outside the timer, drives the
// service for many rounds from one goroutine, checks the final state, and
// prints the end-to-end metrics (--trace 0) or the per-layer split of a
// traced run (--trace 1). The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage, from the root of the repository (svcbench/run.sh builds it):
//
//	svcbench --workload store-100k --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"ecosched/internal/sim"
	"ecosched/internal/stats"
)

// benchGCPercent is the GC percent the benchmark measures under. At the
// default of 100 the small heaps here (2-15 MB live) were collected every few
// MB allocated -- about 15 cycles per round on scan-sharded, whose mutator
// then ran under write barriers most of the time -- and its round times rose
// by half whenever another process used the CPU the mark workers ran on. At
// 800 a collection comes once per 8x the live heap allocated;
// alloc_mb_per_round still reports allocation. GOMAXPROCS stays at the number
// of CPUs, so the collector's and the scavenger's background work runs beside
// the driving goroutine instead of interrupting the calls it times.
const benchGCPercent = 800

func main() {
	debug.SetGCPercent(benchGCPercent)
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: store-100k, scan-sharded or durable-churn")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Float64("seconds", 10, "measure for at least this many seconds")
	traceFlag := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	dir := fs.String("dir", ".bench_build", "directory for the run's journal and checkpoint files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "svcbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *traceFlag)
		return 2
	}
	res, err := benchmark(w, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, *dir, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "svcbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "svcbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchmark runs episodes of the workload until both the workload's minimum
// episode count and the time budget are reached, then reports.
func benchmark(w *workload, seed uint64, budget time.Duration, traced bool, dir string, log io.Writer) (*result, error) {
	scratch := filepath.Join(dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	r := &run{w: w, dir: scratch, log: log, side: traced}
	lt := &layers{tr: tracer{t0: time.Now()}}
	seeds := sim.NewRNG(seed)
	minEpisodes := w.episodes
	if traced {
		minEpisodes = 1
	}
	// Run the minimum number of episodes, then more while the next one, at
	// the mean length so far, still ends within the budget.
	start := time.Now()
	for e := 0; ; e++ {
		if elapsed := time.Since(start); e >= minEpisodes && elapsed+elapsed/time.Duration(e) > budget {
			break
		}
		if err := r.runEpisode(seeds.Uint64(), e, traced, lt); err != nil {
			r.problem("episode %d: %v", e, err)
			break
		}
	}

	for _, fp := range r.fingerprints {
		fmt.Fprintf(log, "fingerprint %s %s\n", w.name, fp)
	}
	for _, p := range r.problems {
		fmt.Fprintf(log, "FAIL %s: %s\n", w.name, p)
	}
	res := &result{
		Correct:   r.failed == 0 && len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
	}
	if traced {
		res.Metrics = r.layerMetrics(lt)
	} else {
		res.Metrics = r.endToEnd()
	}
	report(log, w.name, res.Metrics)
	if traced {
		m := res.Metrics
		fmt.Fprintf(log, "split %s: layer sum %.2f ms vs untraced round mean %.2f ms; subtract+publish+apply %.2f of round p50; scan %.2f ms vs subtract %.2f ms\n",
			w.name, m["trace.layer_sum_ms"].Value, m["trace.untraced_round_ms_mean"].Value, m["trace.store_layers_share"].Value,
			m["alloc.scan_ms"].Value, m["slot.subtract_ms"].Value)
		fmt.Fprintf(log, "spans %s (self time over all traced rounds):\n%s", w.name, lt.tr.spanTable())
		fmt.Fprintf(log, "note %s: the shadow publication runs before Evaluate and absorbs the store's horizon extension; Evaluate then pays only for its clone\n", w.name)
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return res, nil
}

// runEpisode runs one episode; in a traced invocation it also runs the
// untraced baseline (durable-churn only, whose timed episode journals) and
// the traced episode, and checks that tracing changed no decision.
func (r *run) runEpisode(seed uint64, e int, traced bool, lt *layers) error {
	st, err := r.episode(seed, e, modeTimed)
	if err != nil {
		return err
	}
	if !traced {
		return nil
	}
	if r.w.churn {
		base, err := r.episode(seed, e, modeBaseline)
		if err != nil {
			return err
		}
		if *base != *st {
			r.problem("episode %d: the bare service ends in %+v, the durable one in %+v", e, *base, *st)
		}
	}
	tst, err := r.tracedEpisode(seed, lt)
	if err != nil {
		return err
	}
	if *tst != *st {
		r.problem("episode %d: the traced run ends in %+v, the untraced run in %+v", e, *tst, *st)
	}
	return nil
}

// endToEnd computes the end-to-end metrics.
func (r *run) endToEnd() map[string]metric {
	m := map[string]metric{
		"setup_s":            {median(r.setupS), "s"},
		"round_ms_p50":       {stats.Quantile(r.roundMs, 0.5), "ms"},
		"round_ms_p90":       {stats.Quantile(r.roundMs, 0.9), "ms"},
		"jobs_per_s":         {0, "1/s"},
		"alloc_mb_per_round": {0, "MB"},
		"live_heap_mb":       {median(r.heapMB), "MB"},
		"jobs_unplaced_frac": {0, "ratio"},
		"submit_us_p50":      {stats.Quantile(r.submitUs, 0.5), "us"},
		"fault_us_p50":       {stats.Quantile(r.faultUs, 0.5), "us"},
		"fault_us_p90":       {stats.Quantile(r.faultUs, 0.9), "us"},
		"recover_ms":         {median(r.recoverMs), "ms"},
		"disk_mb":            {median(r.diskMB), "MB"},
	}
	if r.tickS > 0 {
		m["jobs_per_s"] = metric{float64(r.placed) / r.tickS, "1/s"}
	}
	if r.timed > 0 {
		m["alloc_mb_per_round"] = metric{float64(r.alloc) / float64(r.timed) / 1e6, "MB"}
	}
	if r.submitted > 0 {
		m["jobs_unplaced_frac"] = metric{float64(r.submitted-r.kept) / float64(r.submitted), "ratio"}
	}
	return m
}

// layerMetrics computes the per-layer metrics of the traced invocation.
func (r *run) layerMetrics(lt *layers) map[string]metric {
	base := r.roundMs
	if r.w.churn {
		base = r.baselineMs
	}
	search, subtract := mean(lt.search), mean(lt.subtract)
	layerSum := mean(lt.begin) + mean(lt.publish) + search + mean(lt.frontier) + mean(lt.apply) + mean(lt.finish)
	useRatio := 0.0
	if lt.foundWindows > 0 {
		useRatio = lt.placedWindows / lt.foundWindows
	}
	gcPerRound, gcFrac := 0.0, 0.0
	if len(base) > 0 {
		gcPerRound = float64(r.gcCycles) / float64(len(base))
	}
	if r.cpu > 0 {
		gcFrac = r.gcCPU / r.cpu
	}
	tracedP50, baseP50 := median(lt.roundMs), median(base)
	storeShare := 0.0
	if baseP50 > 0 {
		storeShare = (subtract + mean(lt.publish) + mean(lt.apply)) / baseP50
	}
	return map[string]metric{
		"metasched.begin_ms":           {mean(lt.begin), "ms"},
		"metasched.evaluate_ms":        {mean(lt.evaluate), "ms"},
		"metasched.apply_ms":           {mean(lt.apply), "ms"},
		"metasched.finish_ms":          {mean(lt.finish), "ms"},
		"gridsim.publish_ms":           {mean(lt.publish), "ms"},
		"gridsim.store_build_ms":       {median(lt.storeBuildMs), "ms"},
		"gridsim.store_slots":          {mean(lt.slots), "count"},
		"alloc.search_ms":              {search, "ms"},
		"slot.subtract_ms":             {subtract, "ms"},
		"alloc.scan_ms":                {search - subtract, "ms"},
		"alloc.slots_examined":         {mean(lt.examined), "count"},
		"alloc.alternatives":           {mean(lt.alts), "count"},
		"alloc.alt_use_ratio":          {useRatio, "ratio"},
		"shard.critpath_ranks":         {mean(lt.critpath), "count"},
		"shard.merge_candidates":       {mean(lt.merged), "count"},
		"shard.imbalance_x1000":        {lt.imbalance, "x1000"},
		"dp.frontier_ms":               {mean(lt.frontier), "ms"},
		"dp.frontier_points":           {mean(lt.points), "count"},
		"durable.append_us":            {median(r.appendUs), "us"},
		"durable.checkpoint_ms":        {median(r.checkpointMs), "ms"},
		"durable.checkpoint_kb":        {median(r.checkpointKB), "KB"},
		"durable.journal_kb_per_round": {median(r.journalKBRound), "KB"},
		"durable.recover_factory_ms":   {median(r.factoryMs), "ms"},
		"durable.replay_records":       {median(r.replayed), "count"},
		"metasched.stale_windows":      {mean(lt.stale), "count"},
		"metasched.queue_depth":        {mean(lt.queue), "count"},
		"metasched.jobs_queued":        {mean(lt.queued), "count"},
		"runtime.gc_cycles_per_round":  {gcPerRound, "count"},
		"runtime.gc_cpu_frac":          {gcFrac, "ratio"},
		"trace.round_ms_p50":           {tracedP50, "ms"},
		"trace.untraced_round_ms_p50":  {baseP50, "ms"},
		"trace.overhead_ms":            {tracedP50 - baseP50, "ms"},
		"trace.layer_sum_ms":           {layerSum, "ms"},
		"trace.untraced_round_ms_mean": {mean(base), "ms"},
		"trace.unexplained_ms":         {mean(base) - layerSum, "ms"},
		"trace.store_layers_share":     {storeShare, "ratio"},
	}
}

// report prints every metric by name with its unit.
func report(log io.Writer, workload string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "metric %s %-30s %14.4f %s\n", workload, n, m[n].Value, m[n].Unit)
	}
	io.WriteString(log, b.String())
}
