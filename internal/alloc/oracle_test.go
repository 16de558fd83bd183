package alloc

import (
	"fmt"
	"strings"
	"testing"

	"ecosched/internal/job"
	"ecosched/internal/resource"
	"ecosched/internal/sim"
	"ecosched/internal/slot"
	"ecosched/internal/workload"
)

// linearOracle hides an algorithm's indexed scan: it exposes only Name and
// FindWindow, so every driver takes its linear path and scans the raw list
// front to back (the FindWindowLinear oracle). The name is kept, so rendered
// results compare byte for byte against the indexed search.
type linearOracle struct{ Algorithm }

// renderResult canonicalizes a SearchResult for byte-level comparison:
// algorithm, pass count, stats, every job's windows in discovery order, and
// the remaining list.
func renderResult(t *testing.T, batch *job.Batch, res *SearchResult) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "algo=%s passes=%d stats=%+v\n", res.Algorithm, res.Passes, res.Stats)
	for _, j := range batch.Jobs() {
		fmt.Fprintf(&b, "%s:", j.Name)
		for _, w := range res.Alternatives[j.Name] {
			fmt.Fprintf(&b, " %v", w)
		}
		b.WriteByte('\n')
	}
	b.WriteString("remaining:\n")
	b.WriteString(res.Remaining.String())
	return b.String()
}

// diffScenario builds the seeded scenario for one differential case; odd
// seeds additionally put a completion deadline on every job to exercise the
// scan's early-break branch.
func diffScenario(t *testing.T, seed uint64) (*slot.List, *job.Batch) {
	t.Helper()
	sc, err := workload.GenerateScenario(workload.PaperSlotGenerator(), workload.PaperJobGenerator(), sim.NewRNG(seed))
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if seed%2 == 1 {
		jobs := make([]*job.Job, 0, sc.Batch.Len())
		for _, j := range sc.Batch.Jobs() {
			cp := *j
			cp.Request.Deadline = sim.Time(800 + 50*int64(seed%7))
			jobs = append(jobs, &cp)
		}
		batch, err := job.NewBatch(jobs)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		return sc.Slots, batch
	}
	return sc.Slots, sc.Batch
}

// disjointBandsFixture builds the low-conflict large-batch scenario: classes
// of tagged nodes whose vacant bands occupy disjoint time ranges, with the
// highest-priority job's band last. Every job scans (and rejects) the other
// classes' slots, so scans are long, while subtractions land beyond
// lower-priority jobs' visited prefixes.
func disjointBandsFixture(classes, wavesPerClass, nodesPerClass int) (*slot.List, *job.Batch) {
	var slots []slot.Slot
	var jobs []*job.Job
	const (
		slotLen  = sim.Duration(130)
		bandGap  = sim.Time(20000)
		waveStep = sim.Duration(150)
	)
	for c := 0; c < classes; c++ {
		tag := fmt.Sprintf("g%d", c)
		// Highest-priority job (class 0) owns the latest band.
		bandStart := sim.Time(int64(classes-1-c)) * bandGap
		for n := 0; n < nodesPerClass; n++ {
			node := &resource.Node{
				Name:        fmt.Sprintf("%s-n%d", tag, n),
				Performance: 1,
				Price:       1,
				Attrs:       resource.Attributes{Tags: []string{tag}},
			}
			for w := 0; w < wavesPerClass; w++ {
				start := bandStart.Add(waveStep * sim.Duration(w))
				slots = append(slots, slot.New(node, start, start.Add(slotLen)))
			}
		}
		jobs = append(jobs, &job.Job{
			Name:     fmt.Sprintf("job-%s", tag),
			Priority: c + 1,
			Request: job.ResourceRequest{
				Nodes:          4,
				Time:           100,
				MinPerformance: 1,
				MaxPrice:       2,
				Needs:          resource.Requirements{Tags: []string{tag}},
			},
		})
	}
	return slot.NewList(slots), job.MustNewBatch(jobs)
}
