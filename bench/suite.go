package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runSuite runs every workload in a fresh child process, so peak RSS,
// heap state and pooled buffers of one workload cannot leak into the
// next one's numbers, and prints one JSON object keyed by workload.
func runSuite(c config, traced bool) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	traces := []int{0}
	if traced {
		traces = append(traces, 1)
	}
	all := map[string]result{}
	ok := true
	for _, tr := range traces {
		for _, w := range workloads {
			args := []string{
				"-workload", w.name, "-seed", strconv.FormatUint(c.seed, 10),
				"-seconds", strconv.Itoa(c.seconds), "-trace", strconv.Itoa(tr),
				"-out", c.outDir, "-tmp", c.tmpDir,
			}
			if c.smoke {
				args = append(args, "-smoke")
			}
			if c.allowKnobs {
				args = append(args, "-allow-knobs")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			os.Stdout.Write(out)
			if err != nil {
				ok = false
				fmt.Printf("FAIL: %s trace %d: %v\n", w.name, tr, err)
			}
			var res result
			if last := lastLine(out); json.Unmarshal(last, &res) == nil {
				all[fmt.Sprintf("%s/trace%d", w.name, tr)] = res
			}
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
	return nil
}

func lastLine(out []byte) []byte {
	out = bytes.TrimRight(out, "\n")
	return out[bytes.LastIndexByte(out, '\n')+1:]
}
