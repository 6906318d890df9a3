package core

import (
	"os"
	"path/filepath"
	"testing"

	"gemstone/internal/gem5"
	"gemstone/internal/hw"
	"gemstone/internal/platform"
	"gemstone/internal/workload"
)

// TestCacheKeyInvalidation is the hit/miss table: every input the paper's
// methodology varies — workload behaviour, DVFS point, cluster, platform,
// model version — must produce a distinct key, and identical inputs must
// produce an identical key.
func TestCacheKeyInvalidation(t *testing.T) {
	prof := workload.Validation()[0]
	base, err := CacheKeyFidelity(hw.Platform(), prof, hw.ClusterA15, 1000, platform.FidelityDetailed)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("identical inputs hit", func(t *testing.T) {
		again, err := CacheKeyFidelity(hw.Platform(), prof, hw.ClusterA15, 1000, platform.FidelityDetailed)
		if err != nil {
			t.Fatal(err)
		}
		if again != base {
			t.Fatal("same run derived two different keys")
		}
	})

	changed := prof
	changed.TotalInsts++
	renamed := prof
	renamed.Name = prof.Name + "-variant"
	misses := []struct {
		name string
		pl   *platform.Platform
		prof workload.Profile
		cl   string
		freq int
	}{
		{"changed workload profile", hw.Platform(), changed, hw.ClusterA15, 1000},
		{"renamed workload", hw.Platform(), renamed, hw.ClusterA15, 1000},
		{"changed DVFS point", hw.Platform(), prof, hw.ClusterA15, 1400},
		{"changed cluster", hw.Platform(), prof, hw.ClusterA7, 1000},
		{"hardware vs gem5", gem5.Platform(gem5.V1), prof, hw.ClusterA15, 1000},
	}
	for _, m := range misses {
		t.Run(m.name+" misses", func(t *testing.T) {
			key, err := CacheKeyFidelity(m.pl, m.prof, m.cl, m.freq, platform.FidelityDetailed)
			if err != nil {
				t.Fatal(err)
			}
			if key == base {
				t.Fatal("key unchanged; stale measurement would be replayed")
			}
		})
	}

	t.Run("model version V1 vs V2 misses", func(t *testing.T) {
		k1, err := CacheKeyFidelity(gem5.Platform(gem5.V1), prof, hw.ClusterA15, 1000, platform.FidelityDetailed)
		if err != nil {
			t.Fatal(err)
		}
		k2, err := CacheKeyFidelity(gem5.Platform(gem5.V2), prof, hw.ClusterA15, 1000, platform.FidelityDetailed)
		if err != nil {
			t.Fatal(err)
		}
		if k1 == k2 {
			t.Fatal("V1 and V2 share a key; the Section VII comparison would read stale runs")
		}
	})

	t.Run("unknown cluster errors", func(t *testing.T) {
		if _, err := CacheKeyFidelity(hw.Platform(), prof, "m7", 1000, platform.FidelityDetailed); err == nil {
			t.Fatal("want an error for an unknown cluster")
		}
	})
}

func testMeasurement(sec float64) platform.Measurement {
	return platform.Measurement{Platform: "t", Cluster: "a15", Workload: "w", FreqMHz: 1000, Seconds: sec}
}

func TestMemoryCacheLRU(t *testing.T) {
	c := NewMemoryCache(2)
	c.Put("k1", testMeasurement(1))
	c.Put("k2", testMeasurement(2))
	if _, ok := c.Get("k1"); !ok { // refresh k1: k2 becomes the eviction victim
		t.Fatal("k1 missing")
	}
	c.Put("k3", testMeasurement(3))
	if _, ok := c.Get("k2"); ok {
		t.Fatal("least recently used entry survived eviction")
	}
	for _, k := range []string{"k1", "k3"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted out of LRU order", k)
		}
	}
	c.Put("k3", testMeasurement(33)) // overwrite must not grow the cache
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	if m, _ := c.Get("k3"); m.Seconds != 33 {
		t.Fatal("overwrite did not replace the entry")
	}
}

// TestNamespaceCacheIsolation is the tenancy contract: the same key
// written through two namespaces lands in two distinct entries, each
// readable only through its own namespace, and the derived keys stay
// filesystem-safe hex so a DiskCache backing works unchanged.
func TestNamespaceCacheIsolation(t *testing.T) {
	inner := NewMemoryCache(16)
	a := NewNamespaceCache("tenant-a", inner)
	b := NewNamespaceCache("tenant-b", inner)

	a.Put("k", testMeasurement(1))
	if _, ok := b.Get("k"); ok {
		t.Fatal("tenant-b read tenant-a's entry")
	}
	if _, ok := inner.Get("k"); ok {
		t.Fatal("namespaced key stored verbatim in the shared cache")
	}
	m, ok := a.Get("k")
	if !ok || m.Seconds != 1 {
		t.Fatal("tenant-a lost its own entry")
	}

	b.Put("k", testMeasurement(2))
	if m, _ := a.Get("k"); m.Seconds != 1 {
		t.Fatal("tenant-b's write clobbered tenant-a's entry")
	}
	if m, _ := b.Get("k"); m.Seconds != 2 {
		t.Fatal("tenant-b read back the wrong entry")
	}

	t.Run("length framing", func(t *testing.T) {
		// (ns="a", key="bc") must not alias (ns="ab", key="c").
		NewNamespaceCache("a", inner).Put("bc", testMeasurement(3))
		if _, ok := NewNamespaceCache("ab", inner).Get("c"); ok {
			t.Fatal("namespace/key boundary ambiguous: concatenation aliases")
		}
	})

	t.Run("disk-backed", func(t *testing.T) {
		disk, err := NewDiskCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// A hostile namespace (path separators, dots) must still produce
		// a plain hex file name inside the cache dir.
		ns := NewNamespaceCache("../t/../../evil", disk)
		ns.Put("k", testMeasurement(4))
		if m, ok := ns.Get("k"); !ok || m.Seconds != 4 {
			t.Fatal("disk round trip through namespace failed")
		}
		ents, err := os.ReadDir(disk.Dir())
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 {
			t.Fatalf("expected 1 cache file inside the dir, found %d", len(ents))
		}
	})
}

func TestDiskCacheRoundTrip(t *testing.T) {
	c, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("hit on an empty cache")
	}
	want := testMeasurement(4.2)
	c.Put("k", want)
	got, ok := c.Get("k")
	if !ok || got.Seconds != want.Seconds || got.Workload != want.Workload {
		t.Fatalf("round trip lost the measurement: %+v", got)
	}
}

// TestDiskCacheCorruptionIsMiss proves the graceful-miss contract: a
// truncated, garbled, or cross-linked entry is a miss, never an error or
// a wrong measurement.
func TestDiskCacheCorruptionIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("k", testMeasurement(1))
	path := filepath.Join(dir, "k.run")
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	corruptions := []struct {
		name string
		data []byte
	}{
		{"truncated", pristine[:len(pristine)/2]},
		{"empty", nil},
		{"garbage", []byte("not a cache entry at all")},
		{"bit flip", func() []byte {
			b := append([]byte(nil), pristine...)
			b[len(b)/2] ^= 0xFF
			return b
		}()},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get("k"); ok {
				t.Fatal("corrupted entry served as a hit")
			}
		})
	}

	t.Run("cross-linked key", func(t *testing.T) {
		// A valid entry copied under another key's filename must not be
		// served: the embedded key no longer matches.
		other := filepath.Join(dir, "other.run")
		if err := os.WriteFile(other, pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Get("other"); ok {
			t.Fatal("entry for key \"k\" served under key \"other\"")
		}
	})

	t.Run("recovers after re-put", func(t *testing.T) {
		c.Put("k", testMeasurement(2))
		if m, ok := c.Get("k"); !ok || m.Seconds != 2 {
			t.Fatal("cache did not recover from corruption")
		}
	})
}

func TestTieredCachePromotesDiskHits(t *testing.T) {
	disk, err := NewDiskCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	disk.Put("k", testMeasurement(7))
	mem := NewMemoryCache(4)
	tc := NewTieredCache(mem, disk)
	if _, ok := tc.Get("k"); !ok {
		t.Fatal("disk entry invisible through the tiered cache")
	}
	if _, ok := mem.Get("k"); !ok {
		t.Fatal("disk hit not promoted into the memory tier")
	}
	tc.Put("k2", testMeasurement(8))
	if _, ok := mem.Get("k2"); !ok {
		t.Fatal("put skipped the memory tier")
	}
	if _, ok := disk.Get("k2"); !ok {
		t.Fatal("put skipped the disk tier")
	}
}
