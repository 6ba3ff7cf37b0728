// Package rescache is oblxd's content-addressed result cache. Real
// sizing traffic is dominated by near-duplicate submissions — layout
// loops resubmit the same deck with updated parasitics, parameter
// sweeps re-POST a deck they already ran — so a finished job's result
// is stored under a key derived from *what was asked*, and an
// identical later submission completes instantly instead of burning
// another 120k-move anneal.
//
// The key is a SHA-256 over (canonical deck text, the result-affecting
// job options, a schema version): see Key. Canonicalization lives in
// internal/netlist so the CLIs can print the same hash (astrx -hash).
// Because annealing is deterministic given (deck, seed policy), a hit
// returns the byte-identical result the original run produced — the
// cache is a memoization, not an approximation.
//
// Entries persist in a cache/ subdirectory of the daemon's state dir as
// CRC-sealed durable envelopes. A corrupt entry is never served: the
// startup scan and every read verify the seal, the embedded key, and
// the schema version, and quarantine anything that fails — a cache
// problem degrades to a miss (re-run the job), never to a wrong answer.
package rescache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"astrx/internal/durable"
	"astrx/internal/metrics"
	"astrx/internal/telemetry"
)

// Mode selects the cache behavior: Off (no lookups, no stores), RO
// (serve hits, store nothing — useful while validating a prewarmed
// cache), RW (serve hits and store completed results).
type Mode string

const (
	Off Mode = "off"
	RO  Mode = "ro"
	RW  Mode = "rw"
)

// ParseMode validates a -cache-mode flag value.
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case Off, RO, RW:
		return Mode(s), nil
	}
	return "", fmt.Errorf("rescache: mode must be off, ro, or rw (got %q)", s)
}

// SchemaVersion is folded into every key. Bump it when the synthesis
// engine changes in a result-affecting way (cost function, annealing
// schedule, verification): every pre-bump entry then misses and ages
// out of the LRU, which is exactly cache invalidation on version bump.
//
// v2: corner-aware synthesis — KeyOptions gained Corners, and the deck's
// .corner cards flow through the canonical text, so pre-corner entries
// (computed by an engine that ignored both) must not be served.
const SchemaVersion = 2

// KeyOptions are the result-affecting job options folded into a key.
// Progress cadence and other observability knobs are deliberately
// absent: they change what you watch, not what you get.
type KeyOptions struct {
	Seed     int64 `json:"seed"`
	MaxMoves int   `json:"max_moves"`
	Runs     int   `json:"runs"`
	NoFreeze bool  `json:"no_freeze"`
	// Corners is the job's corner selection, with the oblx convention:
	// nil (marshals "null") selects every corner the deck declares, an
	// empty slice (marshals "[]") forces nominal-only. The two encode
	// differently on purpose — an all-corners job and a nominal-only job
	// of the same deck must never collide. No omitempty for the same
	// reason.
	Corners []string `json:"corners"`
}

// Key computes the content address of a job: hex SHA-256 over a
// length-prefixed encoding of the schema version, the canonical deck
// text, and the canonical JSON of the options. The encoding is
// deterministic by construction — struct fields marshal in declaration
// order, encoding/json sorts map keys, and the canonical deck text is
// whitespace-normalized — so the same request always produces the same
// key regardless of the submitted JSON's field order or formatting.
// Extra strings (e.g. an engine build tag) extend the key.
func Key(canonicalDeck string, opt KeyOptions, extra ...string) string {
	optJSON, err := json.Marshal(opt)
	if err != nil { // a struct of scalars cannot fail to marshal
		panic(fmt.Sprintf("rescache: marshal key options: %v", err))
	}
	h := sha256.New()
	var lenBuf [8]byte
	section := func(b []byte) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(b)))
		h.Write(lenBuf[:])
		h.Write(b)
	}
	section([]byte(fmt.Sprintf("rescache-v%d", SchemaVersion)))
	section([]byte(canonicalDeck))
	section(optJSON)
	for _, e := range extra {
		section([]byte(e))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// entryRecord is the on-disk form of one cache entry (cache/res-<key>.json,
// sealed in a durable envelope).
type entryRecord struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`
	Stored  time.Time       `json:"stored"`
	Payload json.RawMessage `json:"payload"`
}

// Options configures a Cache.
type Options struct {
	// Mode is the cache behavior (Off disables everything; New then
	// returns a nil Cache, which every method accepts).
	Mode Mode
	// Dir is the durable entry directory (empty → memory-only cache).
	Dir string
	// MaxEntries bounds the LRU (0 → 4096).
	MaxEntries int
	// FS is the filesystem seam (nil → the real one); chaos tests
	// inject faults through it.
	FS durable.FS
	// Registry receives oblxd_cache_* metrics (nil → a private one).
	Registry *metrics.Registry
	// Logger receives structured cache logs (nil → discarded).
	Logger *slog.Logger
}

// Cache is the LRU index over durable result entries. A nil *Cache is
// a valid always-miss, never-store cache, so call sites need no mode
// checks. All methods are safe for concurrent use.
type Cache struct {
	mode Mode
	dir  string
	max  int
	fsys durable.FS
	log  *slog.Logger

	mu sync.Mutex
	// entries maps key → payload; lruOrder tracks recency, most recent
	// last. Payloads are small (one JobResult), so they stay resident.
	entries  map[string]json.RawMessage
	lruOrder []string

	mHits   *metrics.Counter
	mMisses *metrics.Counter
	mEvict  *metrics.Counter
	mQuar   *metrics.Counter
}

// quarantineDir mirrors the server's state-dir convention.
const quarantineDir = "quarantine"

// staleTempAge is how old a leftover `.*.tmp-*` write must be before the
// startup scan removes it. A younger one may be the in-flight write of
// a live process on the same directory (a second daemon, or the
// previous incarnation still finishing), and sweeping it would fail
// that write's rename and lose the cache entry. A store's
// write-fsync-rename takes milliseconds, so an hour-old temp file is a
// crash leftover.
const staleTempAge = time.Hour

// New builds a cache in the given mode, scanning Dir for surviving
// entries. Mode Off returns (nil, nil). Entries that fail verification
// are quarantined, never trusted.
func New(opt Options) (*Cache, error) {
	if opt.Mode == "" || opt.Mode == Off {
		return nil, nil
	}
	if opt.MaxEntries <= 0 {
		opt.MaxEntries = 4096
	}
	if opt.FS == nil {
		opt.FS = durable.OS
	}
	if opt.Logger == nil {
		opt.Logger = telemetry.DiscardLogger()
	}
	reg := opt.Registry
	if reg == nil {
		reg = metrics.New()
	}
	c := &Cache{
		mode:    opt.Mode,
		dir:     opt.Dir,
		max:     opt.MaxEntries,
		fsys:    opt.FS,
		log:     opt.Logger,
		entries: make(map[string]json.RawMessage),
	}
	c.mHits = reg.Counter("oblxd_cache_hits_total")
	reg.SetHelp("oblxd_cache_hits_total", "submissions served from the result cache")
	c.mMisses = reg.Counter("oblxd_cache_misses_total")
	reg.SetHelp("oblxd_cache_misses_total", "cache lookups that found no usable entry")
	c.mEvict = reg.Counter("oblxd_cache_evictions_total")
	reg.SetHelp("oblxd_cache_evictions_total", "entries dropped by the LRU bound")
	c.mQuar = reg.Counter("oblxd_cache_quarantined_total")
	reg.SetHelp("oblxd_cache_quarantined_total", "cache files quarantined as corrupt or mismatched")
	reg.GaugeFunc("oblxd_cache_entries", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.entries))
	})
	reg.SetHelp("oblxd_cache_entries", "resident result-cache entries")

	if c.dir != "" {
		if err := c.scan(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Mode reports the cache mode ("off" on a nil cache).
func (c *Cache) Mode() Mode {
	if c == nil {
		return Off
	}
	return c.mode
}

// scan loads surviving entries from the cache directory, oldest first
// so the LRU order approximates store order across restarts.
func (c *Cache) scan() error {
	if err := c.fsys.MkdirAll(c.dir, 0o755); err != nil {
		return fmt.Errorf("rescache: cache dir: %w", err)
	}
	ents, err := c.fsys.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("rescache: read cache dir: %w", err)
	}
	type loaded struct {
		key    string
		stored time.Time
		pay    json.RawMessage
	}
	var ok []loaded
	for _, e := range ents {
		name := e.Name()
		switch {
		case e.IsDir():
			continue
		case strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp-"):
			if info, err := e.Info(); err == nil && time.Since(info.ModTime()) > staleTempAge {
				c.fsys.Remove(filepath.Join(c.dir, name))
			}
			continue
		case !strings.HasPrefix(name, "res-") || !strings.HasSuffix(name, ".json"):
			continue
		}
		rec, why := c.loadEntry(name)
		if rec == nil {
			c.quarantine(name, why)
			continue
		}
		ok = append(ok, loaded{key: rec.Key, stored: rec.Stored, pay: rec.Payload})
	}
	sort.Slice(ok, func(a, b int) bool { return ok[a].stored.Before(ok[b].stored) })
	for _, l := range ok {
		c.entries[l.key] = l.pay
		c.lruOrder = append(c.lruOrder, l.key)
	}
	// Respect the bound on a restart with a shrunken -cache-max.
	for len(c.entries) > c.max {
		c.evictOldestLocked()
	}
	if n := len(c.entries); n > 0 {
		c.log.Info("result cache loaded", "entries", n, "dir", c.dir)
	}
	return nil
}

// loadEntry reads and verifies one res-<key>.json. On failure it
// returns nil and the quarantine reason.
func (c *Cache) loadEntry(name string) (*entryRecord, string) {
	data, err := c.fsys.ReadFile(filepath.Join(c.dir, name))
	if err != nil {
		return nil, fmt.Sprintf("unreadable: %v", err)
	}
	if len(data) == 0 {
		return nil, "zero-byte entry"
	}
	if !durable.IsSealed(data) {
		return nil, "not a sealed envelope"
	}
	payload, err := durable.Open(data)
	if err != nil {
		return nil, fmt.Sprintf("envelope verification failed: %v", err)
	}
	var rec entryRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return nil, fmt.Sprintf("corrupt JSON: %v", err)
	}
	if rec.Version != SchemaVersion {
		// Pre-bump entries are stale by definition; quarantining them is
		// the version-bump invalidation path.
		return nil, fmt.Sprintf("schema version %d, want %d", rec.Version, SchemaVersion)
	}
	if want := "res-" + rec.Key + ".json"; name != want {
		return nil, fmt.Sprintf("filename does not match embedded key %s", rec.Key)
	}
	if len(rec.Payload) == 0 {
		return nil, "entry has no payload"
	}
	return &rec, ""
}

// quarantine moves an untrusted cache file aside with a .reason
// sidecar, so corruption is inspectable and never re-served.
func (c *Cache) quarantine(name, reason string) {
	c.mQuar.Inc()
	qdir := filepath.Join(c.dir, quarantineDir)
	if err := c.fsys.MkdirAll(qdir, 0o755); err != nil {
		c.log.Error("cache: cannot create quarantine dir, removing entry instead",
			"file", name, "err", err)
		c.fsys.Remove(filepath.Join(c.dir, name))
		return
	}
	dst := filepath.Join(qdir, name)
	if err := c.fsys.Rename(filepath.Join(c.dir, name), dst); err != nil {
		c.log.Error("cache: cannot quarantine entry", "file", name, "err", err)
		return
	}
	if err := c.fsys.WriteFile(dst+".reason", []byte(reason+"\n"), 0o644); err != nil {
		c.log.Error("cache: cannot record quarantine reason", "file", name, "err", err)
	}
	c.log.Warn("cache: quarantined entry", "file", name, "reason", reason)
}

// Get returns the cached payload for key, updating recency. A nil
// cache always misses.
func (c *Cache) Get(key string) (json.RawMessage, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	pay, ok := c.entries[key]
	if !ok {
		c.mMisses.Inc()
		return nil, false
	}
	c.touchLocked(key)
	c.mHits.Inc()
	return pay, true
}

// Put stores a payload under key: into memory, and — when the cache has
// a directory — durably as a sealed envelope. RO caches and nil caches
// store nothing. A durable write failure is logged and the entry kept
// in memory: the cache is an optimization, not a system of record.
func (c *Cache) Put(key string, payload json.RawMessage) {
	if c == nil || c.mode != RW || len(payload) == 0 {
		return
	}
	c.mu.Lock()
	if _, exists := c.entries[key]; !exists && len(c.entries) >= c.max {
		c.evictOldestLocked()
	}
	fresh := make(json.RawMessage, len(payload))
	copy(fresh, payload)
	exists := false
	if _, exists = c.entries[key]; !exists {
		c.lruOrder = append(c.lruOrder, key)
	} else {
		c.touchLocked(key)
	}
	c.entries[key] = fresh
	c.mu.Unlock()

	if c.dir == "" {
		return
	}
	// Compact marshal: an indented write would re-indent the embedded
	// payload, and a reloaded entry must return byte-identical payload.
	rec := entryRecord{Version: SchemaVersion, Key: key, Stored: time.Now(), Payload: fresh}
	data, err := json.Marshal(&rec)
	if err != nil {
		c.log.Error("cache: marshal entry", "key", key, "err", err)
		return
	}
	if err := durable.WriteSealedAtomic(c.fsys, c.entryPath(key), data); err != nil {
		c.log.Warn("cache: durable store failed, entry is memory-only", "key", key, "err", err)
	}
}

// Len reports the resident entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func (c *Cache) entryPath(key string) string {
	return filepath.Join(c.dir, "res-"+key+".json")
}

// touchLocked moves key to the most-recent end. Callers hold c.mu.
func (c *Cache) touchLocked(key string) {
	for i, k := range c.lruOrder {
		if k == key {
			c.lruOrder = append(c.lruOrder[:i], c.lruOrder[i+1:]...)
			break
		}
	}
	c.lruOrder = append(c.lruOrder, key)
}

// evictOldestLocked drops the least-recently-used entry, memory and
// disk both. Callers hold c.mu.
func (c *Cache) evictOldestLocked() {
	if len(c.lruOrder) == 0 {
		return
	}
	victim := c.lruOrder[0]
	c.lruOrder = c.lruOrder[1:]
	delete(c.entries, victim)
	c.mEvict.Inc()
	if c.dir != "" {
		if err := c.fsys.Remove(c.entryPath(victim)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			c.log.Warn("cache: evict remove failed", "key", victim, "err", err)
		}
	}
}
