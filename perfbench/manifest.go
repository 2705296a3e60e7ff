package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// manifest records the host and program that produced a result. It is
// printed on the line before the result and is never gated.
type manifest struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	GitRev     string `json:"git_rev"`
	SourceHash string `json:"source_sha256"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// CalibrationS is the best of three runs of a fixed integer loop:
	// it tells a slower host apart from a slower program.
	CalibrationS float64 `json:"calibration_s"`
}

func hostManifest(cfg config) manifest {
	return manifest{
		Workload:     cfg.workload,
		Seed:         cfg.seed,
		Trace:        cfg.trace,
		GitRev:       gitRevision("."),
		SourceHash:   sourceHash("."),
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CalibrationS: calibrate(),
	}
}

// gitRevision returns the checkout's git revision, or "unknown" when
// root is not the top of a git work tree (the benchmark may run from a
// plain export of the sources).
func gitRevision(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash digests every Go source and go.mod file under root (build
// outputs and VCS metadata excluded), so results from a checkout without
// VCS metadata still identify the program they measured.
func sourceHash(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, filepath.ToSlash(f)+"\x00")
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// calibrationSink keeps the calibration loop from being optimized away.
var calibrationSink uint64

// calibrate times a fixed xorshift loop, best of three.
func calibrate() float64 {
	best := 0.0
	for r := 0; r < 3; r++ {
		t0 := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 20_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calibrationSink += x
		if s := time.Since(t0).Seconds(); r == 0 || s < best {
			best = s
		}
	}
	return best
}
