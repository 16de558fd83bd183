// Package ecosched is a Go implementation of the slot-selection and
// co-allocation system for economic scheduling in distributed computing
// described by Toporkov et al. (PaCT 2011): the ALP and AMP linear-scan
// window-search algorithms, the multi-pass alternative search with slot
// subtraction, and the dynamic-programming batch optimizer choosing one
// execution alternative per job under a VO budget (B*) or occupancy quota
// (T*).
//
// The package is a facade: it re-exports the stable surface of the internal
// packages so applications need a single import. The typical flow is
//
//	pool  — describe nodes (performance rate, price per time unit)
//	list  — publish vacant slots (or derive them from a Grid)
//	batch — describe jobs (N nodes, etalon time t, min performance P,
//	        price cap C)
//	ScheduleBatch(AMP{}, list, batch, MinimizeTimePolicy) — search
//	        alternatives and pick the optimal combination
//
// See examples/quickstart for a complete runnable program and DESIGN.md for
// the system inventory.
package ecosched

import (
	"fmt"

	"ecosched/internal/alloc"
	"ecosched/internal/codec"
	"ecosched/internal/dp"
	"ecosched/internal/gridsim"
	"ecosched/internal/job"
	"ecosched/internal/metasched"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
	"ecosched/internal/strategy"
	"ecosched/internal/trace"
	"ecosched/internal/workload"
)

// Core value types.
type (
	// Time is a point on the simulated time axis (ticks).
	Time = sim.Time
	// Duration is a span of simulated time (ticks).
	Duration = sim.Duration
	// Money is an amount of VO currency.
	Money = sim.Money
	// Interval is a half-open time interval [Start, End).
	Interval = sim.Interval
	// RNG is the deterministic random generator used by all stochastic
	// components.
	RNG = sim.RNG
)

// Resource model.
type (
	// Node is a computational resource with a performance rate and a
	// price per time unit.
	Node = resource.Node
	// Pool is an immutable node collection.
	Pool = resource.Pool
	// PricingModel maps performance to price.
	PricingModel = resource.PricingModel
	// NodeAttributes are the non-performance node characteristics
	// (RAM, disk, OS, capability tags).
	NodeAttributes = resource.Attributes
	// NodeRequirements are the attribute thresholds of a request.
	NodeRequirements = resource.Requirements
)

// Slot substrate.
type (
	// Slot is a vacant span on one node.
	Slot = slot.Slot
	// SlotList is the ordered vacant-slot list both algorithms scan.
	SlotList = slot.List
	// Window is a co-allocated set of N synchronized slots — one
	// execution alternative.
	Window = slot.Window
	// Placement is one task's share of a window.
	Placement = slot.Placement
)

// Job model.
type (
	// Job is an independent parallel application.
	Job = job.Job
	// ResourceRequest is a job's requirements (N, t, P, C, ρ).
	ResourceRequest = job.ResourceRequest
	// Batch is the job set scheduled together in one iteration.
	Batch = job.Batch
)

// Algorithms.
type (
	// Algorithm is a single-window slot search.
	Algorithm = alloc.Algorithm
	// ALP searches with a per-slot price cap.
	ALP = alloc.ALP
	// AMP searches with a whole-job budget.
	AMP = alloc.AMP
	// SearchOptions tunes the multi-pass alternative search.
	SearchOptions = alloc.SearchOptions
	// SearchResult holds the alternatives found for a batch.
	SearchResult = alloc.SearchResult
	// SearchStats counts the work a search performed.
	SearchStats = alloc.Stats
)

// Optimizer.
type (
	// Plan is a chosen combination: one window per job.
	Plan = dp.Plan
	// Choice is one job's selected window.
	Choice = dp.Choice
	// Alternatives maps job names to their windows.
	Alternatives = dp.Alternatives
	// Limits bundles the derived batch limits T* and B*.
	Limits = dp.Limits
	// FrontierDP is the sparse dominance-pruned combination optimizer.
	FrontierDP = dp.Frontier
)

// Environment and generators.
type (
	// Grid is the non-dedicated resource environment: nodes plus booked
	// local tasks and VO reservations.
	Grid = gridsim.Grid
	// GridTask is a booked occupancy interval.
	GridTask = gridsim.Task
	// SlotGenerator draws the paper's Section 5 slot lists.
	SlotGenerator = workload.SlotGenerator
	// JobGenerator draws the paper's Section 5 job batches.
	JobGenerator = workload.JobGenerator
	// Scenario is one generated scheduling-iteration input.
	Scenario = workload.Scenario
)

// Metascheduler.
type (
	// Scheduler is the VO-level iterative metascheduler.
	Scheduler = metasched.Scheduler
	// SchedulerConfig parameterizes the metascheduler.
	SchedulerConfig = metasched.Config
	// IterationReport summarizes one scheduling iteration.
	IterationReport = metasched.IterationReport
	// DemandPricing scales published prices by grid utilization.
	DemandPricing = metasched.DemandPricing
	// TraceRecorder records scheduling decisions for inspection.
	TraceRecorder = trace.Recorder
	// TraceEvent is one recorded scheduling decision.
	TraceEvent = trace.Event
)

// Scheduling strategies (failure-aware execution, Section 7 extension).
type (
	// Strategy pairs each job's chosen window with fallback versions.
	Strategy = strategy.Strategy
	// StrategyReport summarizes a strategy execution under failures.
	StrategyReport = strategy.Report
	// NodeFailure is one injected node failure event.
	NodeFailure = strategy.Failure
)

// Re-exported constructors.
var (
	// NewPool builds a validated node pool.
	NewPool = resource.NewPool
	// NewSlotList builds an ordered slot list.
	NewSlotList = slot.NewList
	// NewSlot builds a slot on a node at the node's price.
	NewSlot = slot.New
	// NewBatch builds a validated, priority-ordered batch.
	NewBatch = job.NewBatch
	// NewRNG builds a deterministic generator.
	NewRNG = sim.NewRNG
	// NewGrid builds an idle grid over a pool.
	NewGrid = gridsim.New
	// NewScheduler builds a metascheduler over a grid.
	NewScheduler = metasched.New
	// FindAlternatives runs the multi-pass alternative search.
	FindAlternatives = alloc.FindAlternatives
	// FindAlternativesFair is the batch-at-once search variant: each
	// round commits the globally earliest window across the whole batch.
	FindAlternativesFair = alloc.FindAlternativesFair
	// FindFirst returns only the earliest window per job.
	FindFirst = alloc.FindFirst
	// BuildStrategy assembles a failure-aware strategy from a plan and
	// its search result.
	BuildStrategy = strategy.Build
	// NewTraceRecorder builds a bounded decision recorder.
	NewTraceRecorder = trace.NewRecorder
	// EncodeScenario and DecodeScenario (de)serialize scenarios as JSON.
	EncodeScenario = codec.EncodeScenario
	DecodeScenario = codec.DecodeScenario
	// ComputeLimits derives T* (Eq. 2) and B* (Eq. 3).
	ComputeLimits = dp.ComputeLimits
	// MinimizeTime solves min T(s̄) s.t. C(s̄) ≤ B*.
	MinimizeTime = dp.MinimizeTime
	// MinimizeCost solves min C(s̄) s.t. T(s̄) ≤ T*.
	MinimizeCost = dp.MinimizeCost
	// NewFrontier builds the sparse Pareto-frontier DP engine once per
	// batch; its methods answer every optimization problem and the limit
	// derivation from one shared backward pass.
	NewFrontier = dp.NewFrontier
	// ParetoFront computes every Pareto-optimal (time, cost) combination.
	ParetoFront = dp.ParetoFront
	// WeightedSum picks the frontier plan minimizing a weighted criterion.
	WeightedSum = dp.WeightedSum
	// Lexicographic picks a frontier endpoint (time-first or cost-first).
	Lexicographic = dp.Lexicographic
	// PaperSlotGenerator and PaperJobGenerator return the Section 5
	// workload configurations.
	PaperSlotGenerator = workload.PaperSlotGenerator
	PaperJobGenerator  = workload.PaperJobGenerator
	// PaperPricing returns the Section 5 pricing model.
	PaperPricing = resource.PaperPricing
)

// Metascheduler policies.
const (
	// MinimizeTimePolicy optimizes min T(s̄) under the VO budget.
	MinimizeTimePolicy = metasched.MinimizeTime
	// MinimizeCostPolicy optimizes min C(s̄) under the occupancy quota.
	MinimizeCostPolicy = metasched.MinimizeCost
)

// ScheduleResult bundles the outcome of ScheduleBatch.
type ScheduleResult struct {
	// Search holds every alternative found.
	Search *SearchResult
	// Limits are the derived batch limits T* and B*.
	Limits Limits
	// Plan is the chosen combination.
	Plan *Plan
}

// ScheduleBatch runs the complete two-phase scheme on a vacant-slot list:
// multi-pass alternative search with algo, limit derivation per Eqs. (2)–(3),
// and the backward-run optimization for the given policy. It fails when some
// job has no alternative (the caller postpones the batch) or when no
// combination satisfies the derived limit.
func ScheduleBatch(algo Algorithm, list *SlotList, batch *Batch, policy metasched.Policy) (*ScheduleResult, error) {
	search, err := alloc.FindAlternatives(algo, list, batch, alloc.SearchOptions{})
	if err != nil {
		return nil, err
	}
	if !search.AllJobsCovered(batch) {
		return nil, fmt.Errorf("ecosched: not every job has an execution alternative; postpone the batch")
	}
	alts := dp.Alternatives(search.Alternatives)
	// One sparse frontier pass answers the limit derivation and the policy
	// run; see internal/dp/frontier.go.
	fr, err := dp.NewFrontier(batch, alts)
	if err != nil {
		return nil, err
	}
	limits, err := fr.Limits()
	if err != nil {
		return nil, err
	}
	var plan *dp.Plan
	switch policy {
	case metasched.MinimizeCost:
		plan, err = fr.MinimizeCost(limits.Quota)
	default:
		plan, err = fr.MinimizeTime(limits.Budget)
	}
	if err != nil {
		return nil, err
	}
	return &ScheduleResult{Search: search, Limits: limits, Plan: plan}, nil
}
