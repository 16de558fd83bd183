package main

import (
	"encoding/json"
	"io"
	"os"
	"sort"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks the output
// against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) *spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return &s
}

// TestSmoke runs every workload at a tiny size, untraced and traced, with
// the correctness gate on, and checks that the output carries exactly the
// metrics BENCHMARK.json declares, with their units.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		w, err := findWorkload(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		small := w.scaled(24, 3, 6)
		for _, traced := range []bool{false, true} {
			res, err := benchmark(small, 7, 0, traced, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%t: correct=%t attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := map[string]string{}
			if traced {
				for _, m := range s.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range s.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			checkMetrics(t, w.name, traced, res.Metrics, want)
		}
	}
}

func checkMetrics(t *testing.T, workload string, traced bool, got map[string]metric, want map[string]string) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		unit, ok := want[n]
		if !ok {
			t.Errorf("%s traced=%t: metric %s is not declared in BENCHMARK.json", workload, traced, n)
			continue
		}
		if got[n].Unit != unit {
			t.Errorf("%s traced=%t: metric %s has unit %s, BENCHMARK.json says %s", workload, traced, n, got[n].Unit, unit)
		}
	}
	for n := range want {
		if _, ok := got[n]; !ok {
			t.Errorf("%s traced=%t: declared metric %s is missing", workload, traced, n)
		}
	}
}

// TestDeterministicEpisodes checks that one seed gives the same inputs and
// therefore the same final state on every run.
func TestDeterministicEpisodes(t *testing.T) {
	w, err := findWorkload("durable-churn")
	if err != nil {
		t.Fatal(err)
	}
	small := w.scaled(24, 3, 6)
	var fps [2][]string
	for i := range fps {
		r := &run{w: small, dir: t.TempDir(), log: io.Discard}
		if _, err := r.episode(11, 0, modeTimed); err != nil {
			t.Fatal(err)
		}
		if len(r.problems) > 0 {
			t.Fatalf("run %d: %v", i, r.problems)
		}
		fps[i] = r.fingerprints
	}
	if len(fps[0]) != 1 || fps[0][0] != fps[1][0] {
		t.Fatalf("same seed, different fingerprints: %v vs %v", fps[0], fps[1])
	}
}

// TestBadArguments checks that a bad invocation fails without a result.
func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "store-100k", "--trace", "2"},
		{"--workload", "store-100k", "--seconds", "0"},
	} {
		if code := realMain(args, io.Discard, io.Discard); code == 0 {
			t.Errorf("%v: exit code 0", args)
		}
	}
}
