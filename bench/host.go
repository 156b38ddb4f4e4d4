package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pvfs/internal/store"
)

// knobEnv are the environment switches that change the path under
// test; a run with one set is not comparable with the history.
var knobEnv = []string{"PVFS_NO_URING", "PVFS_NO_META_BATCH"}

func setKnobs() []string {
	var set []string
	for _, k := range knobEnv {
		if os.Getenv(k) != "" {
			set = append(set, k)
		}
	}
	return set
}

// machine identifies where a run was made, so that a history row is
// only ever compared with rows from the same kind of host.
type machine struct {
	Commit    string   `json:"commit"`
	NProc     int      `json:"nproc"`
	CPU       string   `json:"cpu"`
	Kernel    string   `json:"kernel"`
	TmpFS     string   `json:"tmp_fs"`
	Ring      bool     `json:"io_uring"`
	GoVersion string   `json:"go"`
	Knobs     []string `json:"knobs,omitempty"`
}

func (m machine) String() string {
	return fmt.Sprintf("commit %s, nproc %d, cpu %q, kernel %s, tmp fs %s, io_uring %v, %s, knobs %v",
		m.Commit, m.NProc, m.CPU, m.Kernel, m.TmpFS, m.Ring, m.GoVersion, m.Knobs)
}

func fingerprint(tmpDir string, knobs []string) machine {
	m := machine{
		Commit: "unknown", NProc: runtime.NumCPU(), CPU: "unknown", Kernel: "unknown",
		TmpFS: "unknown", Ring: store.RingAvailable(), GoVersion: runtime.Version(), Knobs: knobs,
	}
	// Only in a checkout that is itself a repository: elsewhere git
	// would go looking through the parent directories.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			m.Commit = strings.TrimSpace(string(out))
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(b))
	}
	if err := os.MkdirAll(tmpDir, 0o755); err == nil {
		var sf syscall.Statfs_t
		if syscall.Statfs(tmpDir, &sf) == nil {
			m.TmpFS = fmt.Sprintf("0x%x", sf.Type)
		}
	}
	return m
}

// appendHistory adds this run as one JSON line to out/history.jsonl,
// the trajectory file later changes are read against.
func appendHistory(c config, workload string, fp machine, res result) error {
	row := struct {
		Time     string  `json:"time"`
		Workload string  `json:"workload"`
		Seed     uint64  `json:"seed"`
		Seconds  int     `json:"seconds"`
		Trace    int     `json:"trace"`
		Smoke    bool    `json:"smoke,omitempty"`
		Machine  machine `json:"machine"`
		Result   result  `json:"result"`
	}{time.Now().UTC().Format(time.RFC3339), workload, c.seed, c.seconds, c.trace, c.smoke, fp, res}
	line, err := json.Marshal(row)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(c.outDir, "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
