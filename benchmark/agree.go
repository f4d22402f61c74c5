package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// manifest is the part of BENCHMARK.json the benchmark reads back: the
// names it must print and the bounds its own repeatability is held to.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readManifest(path string) (*manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// result is the last line a run prints.
type result struct {
	Correct   bool   `json:"correct"`
	Attempted uint64 `json:"attempted"`
	Failed    uint64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSelf runs this binary once as a child process, the way the driver
// does, and parses its last line.
func runSelf(workload string, seed uint64, seconds int) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	last := lines[len(lines)-1]
	fmt.Fprintf(os.Stderr, "%s %d %s\n", workload, seed, last) // the raw run, for whoever wants more than medians
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line: %w", workload, seed, err)
	}
	if !r.Correct || r.Failed != 0 {
		return nil, fmt.Errorf("%s seed %d: correct=%v failed=%d", workload, seed, r.Correct, r.Failed)
	}
	return &r, nil
}

// agreeMain is `benchmark agree`: the acceptance check of BENCHMARK.json
// run by the benchmark on itself. It makes -sets interleaved sets of -runs
// runs per workload (run r of every set uses seed -seed+r), then for each
// workload and end-to-end metric prints every set's median and spread
// (interquartile range over median) and fails when a spread exceeds the
// metric's bound (setup_s excepted, as in the contract) or a later set's
// median is worse than the first's by more than the bound.
func agreeMain(args []string) int {
	fs := flag.NewFlagSet("agree", flag.ExitOnError)
	sets := fs.Int("sets", 2, "interleaved sets of runs")
	runs := fs.Int("runs", 10, "runs per set and workload, each with another seed")
	seed := fs.Uint64("seed", 1, "first seed")
	seconds := fs.Int("seconds", 0, "run length (default: run_seconds of BENCHMARK.json)")
	only := fs.String("workload", "", "check one workload instead of all")
	file := fs.String("manifest", "BENCHMARK.json", "path of BENCHMARK.json")
	if err := fs.Parse(args); err != nil || *sets < 2 || *runs < 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark agree [-sets N>=2] [-runs N>=2] [-seed N] [-seconds S] [-workload NAME]")
		return 2
	}
	mf, err := readManifest(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark agree:", err)
		return 2
	}
	if *seconds == 0 {
		*seconds = mf.RunSeconds
	}
	// values[workload][metric][set] lists one value per run.
	values := map[string]map[string][][]float64{}
	for r := 0; r < *runs; r++ {
		for s := 0; s < *sets; s++ {
			for _, wl := range mf.Workloads {
				if *only != "" && wl.Name != *only {
					continue
				}
				fmt.Fprintf(os.Stderr, "run %d/%d set %d %s\n", r+1, *runs, s, wl.Name)
				res, err := runSelf(wl.Name, *seed+uint64(r), *seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "benchmark agree:", err)
					return 1
				}
				if values[wl.Name] == nil {
					values[wl.Name] = map[string][][]float64{}
				}
				for _, em := range mf.EndToEnd {
					v, ok := res.Metrics[em.Name]
					if !ok {
						fmt.Fprintf(os.Stderr, "benchmark agree: %s did not print %s\n", wl.Name, em.Name)
						return 1
					}
					if values[wl.Name][em.Name] == nil {
						values[wl.Name][em.Name] = make([][]float64, *sets)
					}
					values[wl.Name][em.Name][s] = append(values[wl.Name][em.Name][s], v.Value)
				}
			}
		}
	}
	bad := 0
	fmt.Printf("%-20s %-20s %6s", "workload", "metric", "bound")
	for s := 0; s < *sets; s++ {
		fmt.Printf(" %16s %8s", fmt.Sprintf("median[%d]", s), "spread")
	}
	fmt.Printf(" %8s\n", "worse")
	for _, wl := range mf.Workloads {
		for _, em := range mf.EndToEnd {
			sets := values[wl.Name][em.Name]
			if sets == nil {
				continue
			}
			fmt.Printf("%-20s %-20s %6.3f", wl.Name, em.Name, em.Bound)
			verdict := ""
			var worst float64
			for s, v := range sets {
				sp := spread(v)
				fmt.Printf(" %16.6f %8.4f", median(v), sp)
				if sp > em.Bound && em.Name != "setup_s" {
					verdict = " SPREAD"
				}
				// worse is how far set s's median moved the wrong way
				// from set 0's, as a share of set 0's.
				d := (median(v) - median(sets[0])) / median(sets[0])
				if em.Better == "higher" {
					d = -d
				}
				if s > 0 && d > worst {
					worst = d
				}
			}
			if worst > em.Bound {
				verdict += " WORSE"
			}
			if verdict != "" {
				bad++
			}
			fmt.Printf(" %8.4f%s\n", worst, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d workload x metric pairs outside their bound\n", bad)
		return 1
	}
	fmt.Println("every workload x metric pair within its bound")
	return 0
}
