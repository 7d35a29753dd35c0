package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"text/tabwriter"
)

// compareFiles is -compare: paths alternate baseline, candidate. For
// every (workload, mode, metric) both sides measured it prints each
// side's median and quartiles over the supplied runs and a verdict, and
// fails when any metric is worse.
//
// An end-to-end metric is judged against its bound: the candidate's
// median may be worse than the baseline's by at most bound x baseline;
// when the baseline's own quartiles lie further apart than that, the
// pairing is unresolved rather than same. The deterministic counts are
// compared exactly. Other per-layer metrics have no bound and are listed
// without a verdict.
func compareFiles(paths []string) error {
	if len(paths) < 2 || len(paths)%2 != 0 {
		return fmt.Errorf("-compare takes pairs of result files: A.json B.json [A2.json B2.json ...]")
	}
	type key struct {
		workload, metric string
		trace            int
	}
	var sides [2]map[key][]float64
	for i := range sides {
		sides[i] = map[key][]float64{}
	}
	for i, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range rep.Results {
			for name, v := range r.Metrics {
				k := key{r.Workload, name, r.Trace}
				sides[i%2][k] = append(sides[i%2][k], v)
			}
		}
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tA q1\tA median\tA q3\tB q1\tB median\tB q3\tbound\tverdict")
	worse := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			for _, d := range defs(trace) {
				k := key{w.name, d.Name, trace}
				a, b := sides[0][k], sides[1][k]
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				a1, a2, a3 := quartiles(a)
				b1, b2, b3 := quartiles(b)
				loss := b2 - a2 // how much worse the candidate's median is
				if d.Better == "higher" {
					loss = -loss
				}
				verdict, bound := "-", "-"
				switch {
				case d.Bound > 0:
					bound = fmt.Sprintf("%g", d.Bound)
					limit := d.Bound * math.Abs(a2)
					switch {
					case a3-a1 > limit:
						verdict = "unresolved"
					case loss > limit:
						verdict = "worse"
					case loss < -limit:
						verdict = "better"
					default:
						verdict = "same"
					}
				case deterministic[d.Name]:
					bound = "exact"
					switch {
					case loss > 0:
						verdict = "worse"
					case loss < 0:
						verdict = "better"
					default:
						verdict = "same"
					}
				}
				if verdict == "worse" {
					worse++
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\t%s\t%s\n",
					w.name, d.Name, d.Unit, a1, a2, a3, b1, b2, b3, bound, verdict)
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}
