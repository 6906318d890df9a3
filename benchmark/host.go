package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// hostProvenance records where a result came from: the CPU, its core
// count, the scheduler width, the toolchain, and the source it was built
// from. A checkout without git metadata has no commit; the digest of its
// Go sources identifies it instead.
func hostProvenance() map[string]any {
	commit, dirty := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value
			}
		}
	}
	return map[string]any{
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"dirty":         dirty,
		"source_sha256": sourceDigest("."),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and module file under root (paths
// and contents, in lexical order), skipping hidden directories such as
// the build directory.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hostCPU reads the host-wide CPU time counters of /proc/stat: the time
// stolen by the hypervisor for other guests, and the total. Their change
// over a run says how much of the host the run did not get, the main
// source of run-to-run noise on a shared machine.
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is already in user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// stealPct is the share of host CPU time stolen since the given counters.
func stealPct(steal0, total0 uint64) float64 {
	steal, total := hostCPU()
	if total <= total0 {
		return 0
	}
	return 100 * float64(steal-steal0) / float64(total-total0)
}

// rssSampler tracks the process's peak resident set size between takes,
// sampling /proc/self/statm every few milliseconds. A per-iteration peak
// is steadier than the process-lifetime high-water mark, which one
// unlucky garbage-collection cycle can set.
type rssSampler struct {
	mu   sync.Mutex
	peak int64 // pages
	stop chan struct{}
	done chan struct{}
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	s.mu.Lock()
	s.peak = max(s.peak, pages)
	s.mu.Unlock()
}

// take returns the peak RSS in MiB since the previous take (or the
// sampler's start) and starts a new window.
func (s *rssSampler) take() float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	mb := float64(s.peak*int64(os.Getpagesize())) / (1 << 20)
	s.peak = 0
	return mb
}

// start returns freed heap memory to the OS and opens a new window, so
// the next take is the peak of the work in between rather than of memory
// the runtime kept from earlier work.
func (s *rssSampler) start() {
	debug.FreeOSMemory()
	s.take()
}

// close stops the sampler and waits for it to exit.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// heapAllocs is the cumulative count of heap objects the process has
// allocated. The count, unlike the bytes, hardly moves with the order in
// which reused simulation buffers grow, which on serve-mixed depends on
// which worker picks up which job.
func heapAllocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}
