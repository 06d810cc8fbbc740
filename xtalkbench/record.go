package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// machine identifies where and on what code a run was made.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision stamped into the binary, when the build
	// saw one; SourceSHA256 always identifies the Go sources and module
	// files the run was built from.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

type requestSample struct {
	Seed    int64   `json:"seed"`
	Seconds float64 `json:"seconds"`
}

// record is everything one run measured: the machine, every sample, the
// summary of each metric, and the final metrics. Each run appends its
// record to the runs file, so every run made is kept.
type record struct {
	Workload      string          `json:"workload"`
	Seed          int64           `json:"seed"`
	Seconds       int             `json:"seconds"`
	Trace         int             `json:"trace"`
	CheckSeed     int64           `json:"check_seed"`
	Started       time.Time       `json:"started"`
	Machine       machine         `json:"machine"`
	Setups        []float64       `json:"setup_samples_s,omitempty"`
	Requests      []requestSample `json:"requests,omitempty"`
	WindowSeconds float64         `json:"window_s"`
	// HeapAfter is the window request after which live_heap_mb was read.
	HeapAfter int                `json:"heap_after_request,omitempty"`
	Summaries map[string]summary `json:"summaries"`
	// SelfTimes is the traced window's mean self time per span name per
	// request; with the root's own self time it sums to TracedWall.
	SelfTimes  map[string]float64 `json:"self_times_s,omitempty"`
	TracedWall float64            `json:"traced_request_s,omitempty"`
	SpansFile  string             `json:"spans_file,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Metrics    map[string]metric  `json:"metrics"`
}

func newRecord(o options, g *golden) *record {
	return &record{
		Workload:  o.workload,
		Seed:      o.seed,
		Seconds:   o.seconds,
		Trace:     o.trace,
		CheckSeed: g.CheckSeed,
		Started:   time.Now().UTC(),
		Machine: machine{
			NProc:        runtime.NumCPU(),
			GOMAXPROCS:   runtime.GOMAXPROCS(0),
			CPU:          cpuModel(),
			GoVersion:    runtime.Version(),
			Commit:       vcsRevision(),
			SourceSHA256: sourceDigest(o.root),
		},
	}
}

func (r *record) append(path string) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func vcsRevision() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root (skipping
// hidden directories such as the build directory), in path order.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, ".s") && name != "go.mod" && name != "golden.json" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}
