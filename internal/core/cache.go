package core

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"gemstone/internal/platform"
	"gemstone/internal/workload"
)

// Content-addressed run memoisation. Every simulated run is a pure
// function of (workload profile, cluster configuration, platform
// identity, frequency), so a measurement can be keyed by a stable hash of
// exactly those inputs and replayed instead of re-simulated — the
// in-process analogue of the paper's released datasets, which exist so
// analyses never re-run the 45-65 workload x DVFS campaigns.

// cacheKeyScheme versions the key derivation itself: bump it whenever the
// payload layout or hash inputs change so stale on-disk entries from an
// older scheme can never alias a new key. Scheme 2 replaced the
// json-marshalled payload struct with a length-framed byte string: the
// profile JSON (still canonical — encoding/json sorts its one map) is
// marshalled once per workload and the remaining fields are framed
// directly, which removes the per-run encoder allocations that dominated
// the cold-campaign allocation profile. Scheme 3 added the simulation
// fidelity to the hashed tuple: an atomic-tier prediction and a detailed
// measurement of the same run are different artefacts and must never
// serve each other — not even entries cached before fidelity existed.
const cacheKeyScheme = 3

// CacheKeyFidelity returns the content-addressed cache key of one
// (platform, workload, cluster, frequency) run at simulation tier fid. The
// key covers the full cluster configuration fingerprint, so any model
// change — a gem5 defect fix, a DVFS-table edit, a predictor resize —
// produces a different key. Keys of different tiers never collide: the
// tier is part of the hashed tuple.
func CacheKeyFidelity(pl *platform.Platform, prof workload.Profile, cluster string, freqMHz int, fid platform.Fidelity) (string, error) {
	cc, err := pl.Cluster(cluster)
	if err != nil {
		return "", err
	}
	if !fid.Valid() {
		return "", fmt.Errorf("core: cache key for invalid fidelity %d", fid)
	}
	return cacheKeyFromParts(pl.Name(), pl.Config().HasSensors, cluster, cc.Fingerprint(), profileKeyJSON(prof), freqMHz, fid), nil
}

// profileKeyJSON is the canonical byte serialisation of a profile for key
// derivation. The collector calls it once per workload, not once per run.
func profileKeyJSON(prof workload.Profile) []byte {
	data, err := json.Marshal(prof)
	if err != nil {
		// Profile is plain data; this is unreachable short of NaN fields.
		// A per-error serialisation keeps such a run keyed (deterministically)
		// by the failure rather than aliasing a real profile.
		data = []byte(fmt.Sprintf("unmarshalable profile: %v", err))
	}
	return data
}

// cacheKeyFromParts derives the key from a precomputed cluster
// fingerprint and profile serialisation — the collector resolves each
// cluster's fingerprint once per campaign and each profile's JSON once per
// workload instead of once per run. Every variable-length field is length-
// prefixed, so distinct part tuples can never frame to the same bytes.
func cacheKeyFromParts(platformName string, hasSensors bool, cluster, clusterHash string, profJSON []byte, freqMHz int, fid platform.Fidelity) string {
	buf := make([]byte, 0,
		8*6+4+len(platformName)+len(cluster)+len(clusterHash)+len(profJSON))
	buf = binary.LittleEndian.AppendUint64(buf, cacheKeyScheme)
	buf = appendKeyField(buf, platformName)
	if hasSensors {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = append(buf, byte(fid))
	buf = appendKeyField(buf, cluster)
	buf = appendKeyField(buf, clusterHash)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(freqMHz)))
	buf = appendKeyField(buf, string(profJSON))
	sum := sha256.Sum256(buf)
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], sum[:])
	return string(dst[:])
}

// appendKeyField appends a length-prefixed field to the key buffer.
func appendKeyField(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(s)))
	return append(buf, s...)
}

// RunCache memoises measurements under content-addressed keys. All
// methods must be safe for concurrent use; Get misses on any internal
// failure rather than propagating it (a corrupt entry is a miss, not an
// error).
type RunCache interface {
	Get(key string) (platform.Measurement, bool)
	Put(key string, m platform.Measurement)
}

// MemoryCache is a fixed-capacity in-memory LRU run cache. The recency
// list is intrusive — slots in one slice linked by index — so a Put costs
// no allocation beyond amortised map/slice growth (container/list costs
// two heap objects per insertion, which dominated campaign allocation
// profiles once the simulator itself stopped allocating).
type MemoryCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]int // key -> slot index
	slots   []memSlot
	head    int // most recently used; -1 when empty
	tail    int // least recently used; -1 when empty
}

type memSlot struct {
	key        string
	m          platform.Measurement
	prev, next int // recency links; -1 terminates
}

// DefaultMemoryCacheEntries bounds NewMemoryCache(0). A full validation
// campaign is 45 workloads x 2 clusters x ~8 frequencies = 720 runs; the
// default holds several whole campaigns.
const DefaultMemoryCacheEntries = 4096

// NewMemoryCache builds an LRU cache holding at most maxEntries
// measurements (0 or negative selects DefaultMemoryCacheEntries).
func NewMemoryCache(maxEntries int) *MemoryCache {
	if maxEntries <= 0 {
		maxEntries = DefaultMemoryCacheEntries
	}
	return &MemoryCache{
		max:     maxEntries,
		entries: make(map[string]int),
		head:    -1,
		tail:    -1,
	}
}

// unlink removes slot i from the recency list.
func (c *MemoryCache) unlink(i int) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// pushFront makes slot i the most recently used.
func (c *MemoryCache) pushFront(i int) {
	s := &c.slots[i]
	s.prev = -1
	s.next = c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

// Get returns the cached measurement for key, marking it recently used.
func (c *MemoryCache) Get(key string) (platform.Measurement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.entries[key]
	if !ok {
		return platform.Measurement{}, false
	}
	c.unlink(i)
	c.pushFront(i)
	return c.slots[i].m, true
}

// Put stores a measurement, evicting the least recently used entry when
// the cache is full.
func (c *MemoryCache) Put(key string, m platform.Measurement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.entries[key]; ok {
		c.slots[i].m = m
		c.unlink(i)
		c.pushFront(i)
		return
	}
	var i int
	if len(c.entries) >= c.max {
		// Reuse the evicted LRU slot for the new entry.
		i = c.tail
		c.unlink(i)
		delete(c.entries, c.slots[i].key)
	} else {
		i = len(c.slots)
		c.slots = append(c.slots, memSlot{})
	}
	c.slots[i] = memSlot{key: key, m: m, prev: -1, next: -1}
	c.entries[key] = i
	c.pushFront(i)
}

// Len reports the number of cached entries.
func (c *MemoryCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// DiskCache persists one measurement per file under a directory, using
// the same gzip+gob envelope discipline as the run-set archives of
// persist.go. It is corruption-tolerant by construction: a truncated,
// garbled or version-skewed entry decodes as a miss and the run is simply
// re-simulated.
type DiskCache struct {
	dir string
}

// cacheEntryVersion versions the on-disk entry envelope.
const cacheEntryVersion = 1

// diskEntry is the stored envelope. Key is repeated inside the payload so
// a renamed or cross-linked file can never serve the wrong measurement.
type diskEntry struct {
	Version int
	Key     string
	M       platform.Measurement
}

// NewDiskCache opens (creating if needed) an on-disk run cache rooted at
// dir.
func NewDiskCache(dir string) (*DiskCache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: creating run cache dir: %w", err)
	}
	return &DiskCache{dir: dir}, nil
}

// Dir returns the cache root directory.
func (c *DiskCache) Dir() string { return c.dir }

func (c *DiskCache) path(key string) string {
	return filepath.Join(c.dir, key+".run")
}

// Get loads the entry for key; any failure — missing file, truncation,
// corruption, version skew, key mismatch — is a miss.
func (c *DiskCache) Get(key string) (platform.Measurement, bool) {
	f, err := os.Open(c.path(key))
	if err != nil {
		return platform.Measurement{}, false
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return platform.Measurement{}, false
	}
	defer zr.Close()
	var e diskEntry
	if err := gob.NewDecoder(zr).Decode(&e); err != nil {
		return platform.Measurement{}, false
	}
	// Drain to EOF so the gzip CRC over the whole entry is verified: a
	// bit flip anywhere in the file demotes the entry to a miss even when
	// the flipped byte still gob-decodes.
	if _, err := io.Copy(io.Discard, zr); err != nil {
		return platform.Measurement{}, false
	}
	if e.Version != cacheEntryVersion || e.Key != key {
		return platform.Measurement{}, false
	}
	return e.M, true
}

// Put stores a measurement atomically (temp file + rename). Storage is
// best-effort: an I/O failure loses the memoisation, never the campaign.
func (c *DiskCache) Put(key string, m platform.Measurement) {
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return
	}
	defer os.Remove(tmp.Name())
	zw := gzip.NewWriter(tmp)
	err = gob.NewEncoder(zw).Encode(diskEntry{Version: cacheEntryVersion, Key: key, M: m})
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return
	}
	_ = os.Rename(tmp.Name(), c.path(key))
}

// TieredCache layers a fast in-memory LRU over a persistent store: reads
// promote disk hits into memory, writes go to both tiers.
type TieredCache struct {
	mem  *MemoryCache
	disk RunCache
}

// NewTieredCache combines an LRU front with a backing store.
func NewTieredCache(mem *MemoryCache, disk RunCache) *TieredCache {
	return &TieredCache{mem: mem, disk: disk}
}

// Get checks the memory tier first, then the backing store.
func (c *TieredCache) Get(key string) (platform.Measurement, bool) {
	if m, ok := c.mem.Get(key); ok {
		return m, true
	}
	m, ok := c.disk.Get(key)
	if ok {
		c.mem.Put(key, m)
	}
	return m, ok
}

// Put stores into both tiers.
func (c *TieredCache) Put(key string, m platform.Measurement) {
	c.mem.Put(key, m)
	c.disk.Put(key, m)
}

// NamespaceCache isolates a tenant's view of a shared run cache: every
// key is re-derived as a hash over (namespace, key), so two tenants
// running the identical campaign never observe each other's entries.
// The service layer uses this to give each tenant an independent cache
// without provisioning per-tenant stores — isolation costs one SHA-256
// per access, not a directory per tenant. Derived keys are hex, so they
// remain filesystem-safe for DiskCache regardless of namespace bytes.
type NamespaceCache struct {
	ns    string
	inner RunCache
}

// NewNamespaceCache wraps inner so all keys are scoped to namespace ns.
// An empty namespace is valid and still distinct from the unwrapped
// cache (the key is re-derived either way).
func NewNamespaceCache(ns string, inner RunCache) *NamespaceCache {
	return &NamespaceCache{ns: ns, inner: inner}
}

// Namespace returns the namespace this view is scoped to.
func (c *NamespaceCache) Namespace() string { return c.ns }

// scope derives the namespaced key. Both fields are length-framed, so
// (ns="a", key="bc") and (ns="ab", key="c") can never collide.
func (c *NamespaceCache) scope(key string) string {
	buf := make([]byte, 0, 8*2+len(c.ns)+len(key))
	buf = appendKeyField(buf, c.ns)
	buf = appendKeyField(buf, key)
	sum := sha256.Sum256(buf)
	var dst [2 * sha256.Size]byte
	hex.Encode(dst[:], sum[:])
	return string(dst[:])
}

// Get looks the key up inside the namespace.
func (c *NamespaceCache) Get(key string) (platform.Measurement, bool) {
	return c.inner.Get(c.scope(key))
}

// Put stores the measurement inside the namespace.
func (c *NamespaceCache) Put(key string, m platform.Measurement) {
	c.inner.Put(c.scope(key), m)
}

// OpenRunCache builds the standard two-tier cache: a default-sized LRU in
// front of an on-disk store at dir.
func OpenRunCache(dir string) (*TieredCache, error) {
	disk, err := NewDiskCache(dir)
	if err != nil {
		return nil, err
	}
	return NewTieredCache(NewMemoryCache(0), disk), nil
}
