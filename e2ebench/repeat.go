package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// repeatRuns runs the workload n times as child processes of this
// binary, with seeds seed..seed+n-1, and prints each metric's median,
// quartiles and spread — the distance between the quartiles as a share
// of the median, the figure the benchmark's bounds are set against.
func repeatRuns(w io.Writer, workload string, seed int64, seconds, trace, n int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	failed := 0
	for i := 0; i < n; i++ {
		s := seed + int64(i)
		var out bytes.Buffer
		cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(s, 10),
			"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace))
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		runErr := cmd.Run()
		res, err := lastResult(out.Bytes())
		if err != nil {
			return fmt.Errorf("seed %d: %v (exit: %v)", s, err, runErr)
		}
		if !res.Correct {
			failed++
		}
		fmt.Fprintf(w, "seed %d: correct=%v attempted=%d failed=%d", s, res.Correct, res.Attempted, res.Failed)
		for _, name := range sortedKeys(res.Metrics) {
			m := res.Metrics[name]
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
			fmt.Fprintf(w, " %s=%.4g", name, m.Value)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-36s %14s %14s %14s %8s  unit\n", "metric", "q1", "median", "q3", "spread")
	for _, name := range sortedKeys(values) {
		q1, q2, q3 := quartiles(values[name])
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		fmt.Fprintf(w, "%-36s %14.4f %14.4f %14.4f %8.4f  %s\n", name, q1, q2, q3, spread, units[name])
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d runs failed the output check", failed, n)
	}
	return nil
}

var errNoResult = errors.New("no result line")

// lastResult parses the JSON result on the last line of a run's output.
func lastResult(out []byte) (*result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if last == nil {
		return nil, errNoResult
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return nil, fmt.Errorf("%w: %v", errNoResult, err)
	}
	return &res, nil
}
