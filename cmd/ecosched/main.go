// Command ecosched reproduces every table and figure of the paper's
// evaluation from the command line. Each subcommand regenerates one
// experiment; see EXPERIMENTS.md for the paper-vs-measured record.
//
// Usage:
//
//	ecosched example                      # Section 4 worked example (Figs. 2–3)
//	ecosched fig4   [-iterations N]       # time-min study (Fig. 4a/4b + counts)
//	ecosched fig5   [-iterations N]       # per-experiment series (Fig. 5)
//	ecosched fig6   [-iterations N]       # cost-min study (Fig. 6a/6b + counts)
//	ecosched rho    [-iterations N]       # Section 6 budget-factor sweep
//	ecosched grid   [-iterations N]       # DP granularity ablation
//	ecosched passes [-iterations N]       # multi-pass search ablation
//	ecosched policy [-iterations N]       # AMP window-policy ablation
//	ecosched fairness [-iterations N]     # batch-at-once search extension
//	ecosched robustness [-iterations N]   # failure-injection strategy extension
//	ecosched scaling                      # operation-count scaling vs backfill
//	ecosched gridsim                      # multi-iteration metascheduler demo
//	ecosched chaos  [-faults PLAN]        # fault-injected session with audit
//	ecosched recover -journal PATH        # rebuild a crashed chaos -service session
//	ecosched mc     [-depth N -states N]  # exhaustive schedule/commit model checker
//
// The paper's full runs use -iterations 25000; the default of 2000 keeps a
// laptop run under a minute while preserving every reported shape.
package main

import (
	"flag"
	"fmt"
	"os"

	"ecosched/internal/experiments"
	"ecosched/internal/metrics"
	"ecosched/internal/strategy"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "ecosched:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return fmt.Errorf("missing subcommand")
	}
	cmd, rest := args[0], args[1:]

	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	seed := fs.Uint64("seed", 42, "root RNG seed")
	iterations := fs.Int("iterations", 2000, "simulated scheduling iterations (paper: 25000)")
	series := fs.Int("series", 300, "kept experiments in the Fig. 5 series")
	file := fs.String("file", "", "scenario file for export/replay (\"-\" = stdout)")
	parallelism := fs.Int("parallelism", 1, "goroutines producing per-shard scan candidates under -shards K>1 (schedules are identical for every value)")
	shards := fs.Int("shards", 1, "federate the grid into K sharded domains with cross-shard combination (schedules are identical for every value)")
	service := fs.Bool("service", false, "drive the session through the continuous-service event loop (eval queue + plan/apply rounds; transcripts are identical to batch mode)")
	faults := fs.String("faults", "", "fault plan for the chaos scenario, e.g. \"fail@300:cpu3;recover@600:cpu3;revoke@450:cpu5:500-700\" (empty = seeded random plan)")
	journal := fs.String("journal", "", "write-ahead journal path for the chaos -service session (checkpoints land at PATH.ckpt); recover replays it")
	checkpointEvery := fs.Int("checkpoint-every", 0, "write a checkpoint every N journaled rounds (0 = journal only)")
	universe := fs.String("universe", "default", "model-checker universe: tiny (2 nodes, 2 jobs), default (3 nodes, 3 jobs), or 2shard (default federated into two shards)")
	depth := fs.Int("depth", 8, "model-checker interleaving depth bound")
	states := fs.Int("states", 200000, "model-checker distinct-state bound")
	mutation := fs.String("mutation", "none", "model-checker seeded bug: none, double-refund, resurrect, blind-apply, lossy-crash (the sweep must catch it)")
	cexPath := fs.String("cex", "", "write the model-checker counterexample script to this file")
	liveness := fs.Bool("liveness", true, "model-checker: drain sampled leaf states to check every job terminates")
	metricsPath := fs.String("metrics", "", "write a metrics snapshot after the subcommand (\"-\" = stdout, .json = JSON encoding)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while the subcommand runs")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if *pprofAddr != "" {
		if err := servePprof(*pprofAddr); err != nil {
			return err
		}
	}
	var reg *metrics.Registry
	if *metricsPath != "" {
		reg = metrics.New()
	}
	cfg := experiments.PaperStudyConfig(*seed, *iterations)
	cfg.SeriesLength = *series
	cfg.Metrics = reg

	if cmd == "mc" {
		return runMC(*universe, *depth, *states, *mutation, *cexPath, *liveness, *service)
	}
	if err := dispatch(cmd, cfg, *seed, *iterations, *file, *faults, *journal, *checkpointEvery, *parallelism, *shards, *service, reg); err != nil {
		return err
	}
	if reg != nil {
		return writeMetrics(reg, *metricsPath)
	}
	return nil
}

// dispatch runs one subcommand; the caller dumps the metrics snapshot (if
// requested) after it returns, so every subcommand gets -metrics for free.
func dispatch(cmd string, cfg experiments.StudyConfig, seed uint64, iterations int, file, faults, journal string, checkpointEvery, parallelism, shards int, service bool, reg *metrics.Registry) error {
	switch cmd {
	case "example":
		return runExample()
	case "fig4":
		return runStudy(experiments.TimeMin, cfg,
			"Fig. 4 — job batch execution time minimization (min T(s̄) s.t. C(s̄) ≤ B*)")
	case "fig6":
		return runStudy(experiments.CostMin, cfg,
			"Fig. 6 — job batch execution cost minimization (min C(s̄) s.t. T(s̄) ≤ T*)")
	case "fig5":
		res, err := experiments.RunStudy(experiments.TimeMin, cfg)
		if err != nil {
			return err
		}
		fmt.Println("Fig. 5 — average job execution time per experiment (time minimization)")
		fmt.Print(experiments.RenderSeries(res))
		return nil
	case "rho":
		points, err := experiments.RhoSweep(cfg, []float64{0.6, 0.7, 0.8, 0.9, 1.0})
		if err != nil {
			return err
		}
		fmt.Println("Section 6 — budget factor sweep (S = ρ·C·t·N)")
		fmt.Print(experiments.RenderRhoSweep(points))
		return nil
	case "grid":
		points, err := experiments.GridAblation(cfg, []int{20, 100, 500, 2000})
		if err != nil {
			return err
		}
		fmt.Println("Ablation — DP budget-axis resolution (0 = exact time-axis DP)")
		for _, p := range points {
			fmt.Printf("states=%5d kept=%5d AMP time=%7.2f AMP cost=%8.2f\n",
				p.BudgetStates, p.Kept, p.JobTime, p.JobCost)
		}
		return nil
	case "passes":
		points, err := experiments.PassesAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Ablation — multi-pass alternative search vs first-window-only")
		for _, p := range points {
			fmt.Printf("%-10s kept=%5d ALP time=%7.2f AMP time=%7.2f ALP cost=%8.2f AMP cost=%8.2f\n",
				p.Label, p.Kept, p.ALPTime, p.AMPTime, p.ALPCost, p.AMPCost)
		}
		return nil
	case "policy":
		points, err := experiments.PolicyAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Ablation — AMP window policy (cheapest-N is the paper's step 2°)")
		for _, p := range points {
			fmt.Printf("%-12v kept=%5d time=%7.2f cost=%8.2f alt/job=%6.2f\n",
				p.Policy, p.Kept, p.JobTime, p.JobCost, p.AltsPerJob)
		}
		return nil
	case "fairness":
		seq, fair, err := experiments.FairnessStudy(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Extension — batch-at-once fair search vs sequential priority order (Section 7 future work)")
		fmt.Print(experiments.RenderFairness(seq, fair))
		return nil
	case "robustness":
		alp, amp, err := strategy.RobustnessStudy(strategy.RobustnessConfig{
			Seed:        seed,
			Iterations:  iterations,
			FailureProb: 0.25,
			Policy:      strategy.EarliestFirst,
		})
		if err != nil {
			return err
		}
		fmt.Println("Extension — failure-injected strategy execution (Section 7 future work, refs [13, 14])")
		fmt.Print(strategy.RenderRobustness(alp, amp, 0.25))
		return nil
	case "scaling":
		points, err := experiments.ScalingStudy(seed, []int{500, 1000, 2000, 4000, 8000, 16000})
		if err != nil {
			return err
		}
		fmt.Println("Section 3 — operation counts vs slot-list length m")
		fmt.Print(experiments.RenderScaling(points))
		return nil
	case "report":
		return runReport(seed, iterations, file)
	case "clustered":
		points, err := experiments.ClusteredAblation(cfg)
		if err != nil {
			return err
		}
		fmt.Println("Ablation — statistical vs domain-structured slot lists")
		fmt.Print(experiments.RenderClustered(points))
		return nil
	case "baseline":
		bf, eco, err := experiments.BaselineStudy(experiments.BaselineConfig{
			Seed: seed, Trials: iterations / 50,
		})
		if err != nil {
			return err
		}
		fmt.Println("Baseline — EASY backfilling vs the economic scheme on a homogeneous cluster")
		fmt.Print(experiments.RenderBaseline(bf, eco))
		return nil
	case "dynamics":
		alp, amp, err := experiments.DynamicsStudy(experiments.DynamicsConfig{
			Seed:     seed,
			Sessions: iterations / 40,
		})
		if err != nil {
			return err
		}
		fmt.Println("Extension — failure-injected metascheduler sessions (re-queue + re-schedule)")
		fmt.Print(experiments.RenderDynamics(alp, amp))
		return nil
	case "export":
		return runExport(seed, file)
	case "replay":
		return runReplay(file)
	case "pareto":
		return runPareto(seed)
	case "gridsim":
		return runGridsim(seed, parallelism, shards, service, reg)
	case "chaos":
		return runChaos(seed, faults, journal, checkpointEvery, parallelism, shards, service, reg)
	case "recover":
		return runRecover(seed, journal, checkpointEvery, parallelism, shards, reg)
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
}

func runExample() error {
	res, err := experiments.RunSection4()
	if err != nil {
		return err
	}
	grid, _, err := experiments.Section4Environment()
	if err != nil {
		return err
	}
	fmt.Println("Section 4 — AMP search example")
	fmt.Print(experiments.RenderSection4(res, grid))
	return nil
}

func runStudy(obj experiments.Objective, cfg experiments.StudyConfig, title string) error {
	res, err := experiments.RunStudy(obj, cfg)
	if err != nil {
		return err
	}
	fmt.Println(title)
	fmt.Print(experiments.RenderStudy(res))
	return nil
}

func usage() {
	fmt.Fprint(os.Stderr, `ecosched — slot selection and co-allocation for economic scheduling

subcommands:
  example   Section 4 worked example (Figs. 2-3)
  fig4      time-minimization study (Fig. 4a/4b + alternative counts)
  fig5      per-experiment series, time minimization (Fig. 5)
  fig6      cost-minimization study (Fig. 6a/6b + alternative counts)
  rho       Section 6 budget-factor sweep (S = rho*C*t*N)
  grid      DP granularity ablation
  passes    multi-pass search ablation
  policy    AMP window-policy ablation
  fairness  batch-at-once fair search vs sequential (Section 7 extension)
  robustness failure-injected strategy execution (Section 7 extension)
  scaling   operation-count scaling: ALP/AMP vs backfill baseline
  pareto    criteria-vector frontier for one iteration (Section 2)
  report    regenerate the full evaluation as one markdown document
  clustered statistical vs domain-structured slot lists
  baseline  EASY backfilling vs AMP+min-time on a homogeneous cluster
  dynamics  failure-injected metascheduler sessions (recovery study)
  export    write one generated scenario as JSON (-file out.json)
  replay    rerun the two-phase scheme on an exported scenario (-file in.json)
  gridsim   multi-iteration metascheduler demo on the grid simulator
  chaos     fault-injected session with retry/backoff and invariant audit
  recover   rebuild a crashed chaos -service session from its journal (-journal PATH)
  mc        bounded exhaustive model checker for the schedule/commit protocol

flags (per subcommand): -seed N -iterations N -series N -file PATH
                        -shards K     (federate the grid into K sharded domains; identical results)
                        -parallelism N (per-shard scan producers under -shards K>1; identical results)
                        -metrics PATH (snapshot after the run; "-" = stdout, .json = JSON)
                        -pprof ADDR   (serve net/http/pprof while running)
                        -service      (continuous-service event loop for gridsim/chaos/mc; identical transcripts)
                        -faults PLAN  (chaos fault plan, e.g. "fail@300:cpu3;recover@600:cpu3")
                        -journal PATH (write-ahead journal for chaos -service; recover replays it)
                        -checkpoint-every N (checkpoint cadence in rounds; 0 = journal only)
mc flags:               -universe tiny|default|2shard -depth N -states N -liveness
                        -mutation none|double-refund|resurrect|blind-apply|lossy-crash -cex PATH
`)
}
