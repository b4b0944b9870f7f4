package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// steadyMain reruns one workload with consecutive seeds, each run in a
// fresh process as a regression gate would make it, and prints every
// end-to-end metric's median, quartiles, relative spread and bound side
// by side, so steadiness can be checked again on any host.
func steadyMain(args []string) error {
	fs := flag.NewFlagSet("steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to rerun")
	runs := fs.Int("runs", 10, "number of runs")
	seed := fs.Uint64("first-seed", 1, "seed of the first run; later runs count up")
	seconds := fs.Float64("seconds", runSeconds, "--seconds of each run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *runs < 2 {
		return fmt.Errorf("--runs must be at least 2")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type result struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	values := map[string][]float64{}
	for i := 0; i < *runs; i++ {
		s := *seed + uint64(i)
		cmd := exec.Command(exe, "--workload", *name, "--seed", fmt.Sprint(s),
			"--seconds", fmt.Sprint(*seconds), "--trace", "0")
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return fmt.Errorf("seed %d: last line: %w", s, err)
		}
		fmt.Printf("seed %d: correct=%t attempted=%d failed=%d", s, r.Correct, r.Attempted, r.Failed)
		for _, spec := range endToEnd {
			v := r.Metrics[spec.Name].Value
			values[spec.Name] = append(values[spec.Name], v)
			fmt.Printf(" %s=%.4g", spec.Name, v)
		}
		fmt.Println()
	}
	fmt.Printf("\n%-20s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, spec := range endToEnd {
		xs := values[spec.Name]
		q1, q2, q3 := quartiles(xs)
		spread := (q3 - q1) / q2
		verdict := "ok"
		switch {
		case spread > spec.Bound:
			verdict = "WIDER THAN BOUND"
		case spread > spec.Bound/3:
			verdict = "over a third of bound"
		}
		fmt.Printf("%-20s %12.6g %12.6g %12.6g %8.4f %6.2f %s\n", spec.Name, q1, q2, q3, spread, spec.Bound, verdict)
	}
	return nil
}
