package scenario

import (
	"bytes"
	"container/list"
	"fmt"
	"sync"
	"time"

	"abftckpt/internal/store"
)

// CellTier identifies which tier of the two-tier cell cache satisfied a
// request.
type CellTier string

const (
	// TierMem: served from the in-memory LRU, no disk access.
	TierMem CellTier = "mem"
	// TierDisk: loaded from the on-disk cache and promoted into memory.
	TierDisk CellTier = "disk"
	// TierExec: a full miss; the cell was executed and stored in both tiers.
	TierExec CellTier = "exec"
	// TierCoalesced: an identical request was already in flight; this call
	// waited for its result instead of executing again (singleflight).
	TierCoalesced CellTier = "coalesced"
)

// CellResponse is the envelope of one evaluated cell: the POST /v1/cells
// response body, and each value `ftcampaign -cell` prints.
type CellResponse struct {
	// Cell is the cell's content hash (its cache key).
	Cell string `json:"cell"`
	// Cache is the tier that served the request: "mem", "disk", "exec" or
	// "coalesced".
	Cache CellTier `json:"cache"`
	// Result is the cell result (exactly one sub-object set, by op).
	Result CellResult `json:"result"`
}

// CacheStats counts cache-tier outcomes since the cache was created. The
// counters are cumulative and monotone; tests and the server's metrics use
// deltas between snapshots.
type CacheStats struct {
	// MemHits counts requests served entirely from the in-memory LRU.
	MemHits int64 `json:"mem_hits"`
	// DiskHits counts requests served from the disk tier (and promoted).
	DiskHits int64 `json:"disk_hits"`
	// DiskReads counts disk-tier lookups, hit or miss. A warm in-memory
	// path leaves this unchanged.
	DiskReads int64 `json:"disk_reads"`
	// Executed counts cells actually executed (full misses).
	Executed int64 `json:"executed"`
	// Coalesced counts requests that joined an identical in-flight
	// execution instead of starting their own.
	Coalesced int64 `json:"coalesced"`
	// StoreErrors counts executed cells whose result could not be written
	// to the store tier (full disk, read-only directory, unreachable
	// remote, …). The result is still returned and kept in memory — a
	// broken store degrades the cache, never the request.
	StoreErrors int64 `json:"store_errors"`
	// ExecErrors counts cell executions that failed outright (the request
	// observed an error and nothing was cached).
	ExecErrors int64 `json:"exec_errors"`
	// CorruptEntries counts store reads that returned a damaged entry —
	// a checksum mismatch or undecodable bytes. Each one is a detected
	// silent error: it degrades to a miss and the re-execution overwrites
	// the bad entry, so the artifact is never built from corrupt data.
	CorruptEntries int64 `json:"corrupt_entries"`
}

// DefaultMemCells bounds the in-memory tier when NewCellCache is given no
// positive capacity. A cell result is a few hundred bytes, so the default
// tier tops out around a few MB.
const DefaultMemCells = 4096

// CellCache is the two-tier cell cache: a size-bounded in-memory LRU with
// singleflight request coalescing, layered over a pluggable result store
// (store.ResultStore — the content-hashed disk layout, an in-memory store,
// or a remote store over HTTP). Concurrent identical requests execute
// once; hot cells are served without touching the store. A CellCache is
// safe for concurrent use and is meant to be shared — between campaign
// jobs, and between jobs and synchronous single-cell evaluations.
type CellCache struct {
	store    store.ResultStore // nil: memory tier only
	dir      string            // root of a disk-layout store, "" otherwise
	capacity int

	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	flight  map[string]*flightCall
	stats   CacheStats
}

// memEntry is one LRU slot; results are immutable once inserted.
type memEntry struct {
	hash   string
	result CellResult
}

// flightCall is one in-flight execution; waiters block on done and read
// result/err afterwards (the channel close publishes the writes).
type flightCall struct {
	done   chan struct{}
	result CellResult
	err    error
}

// NewCellCache returns a cache whose second tier is the historical disk
// layout rooted at dir (empty disables the second tier entirely), holding
// at most memCells results in memory (<= 0 selects DefaultMemCells).
// Disk-tier values are checksum-framed on write and verified on read
// (store.WithChecksum); entries written by pre-checksum binaries pass
// through unverified, so existing caches stay warm.
func NewCellCache(dir string, memCells int) *CellCache {
	var rs store.ResultStore
	if dir != "" {
		rs = store.WithChecksum(store.NewDisk(dir))
	}
	c := NewCellCacheStore(rs, memCells)
	c.dir = dir
	return c
}

// NewCellCacheStore returns a cache whose second tier is the given result
// store (nil: memory tier only). The store may be any backend — memory,
// disk, remote — optionally wrapped in a store.Batcher; the cache only
// ever issues Get and Put with the cell content hash as the key.
func NewCellCacheStore(rs store.ResultStore, memCells int) *CellCache {
	if memCells <= 0 {
		memCells = DefaultMemCells
	}
	return &CellCache{
		store:    rs,
		capacity: memCells,
		entries:  map[string]*list.Element{},
		order:    list.New(),
		flight:   map[string]*flightCall{},
	}
}

// Dir returns the root directory when the second tier is the disk layout
// ("" for any other backend, including none).
func (c *CellCache) Dir() string { return c.dir }

// Store returns the second-tier result store (nil when the cache is
// memory-only). The server mounts the store API over it so workers can
// share one cache.
func (c *CellCache) Store() store.ResultStore { return c.store }

// Flush forces buffered store writes (a store.Batcher in the stack) to
// commit. Memory-only caches return nil.
func (c *CellCache) Flush() error {
	if c.store == nil {
		return nil
	}
	return c.store.Flush()
}

// Close flushes and releases the second-tier store. The cache must not be
// used afterwards.
func (c *CellCache) Close() error {
	if c.store == nil {
		return nil
	}
	return c.store.Close()
}

// Stats returns a snapshot of the cache counters.
func (c *CellCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// insertLocked adds a result to the memory tier, evicting from the LRU
// tail past capacity. Callers hold c.mu.
func (c *CellCache) insertLocked(hash string, res CellResult) {
	if el, ok := c.entries[hash]; ok {
		c.order.MoveToFront(el)
		return
	}
	c.entries[hash] = c.order.PushFront(&memEntry{hash: hash, result: res})
	for len(c.entries) > c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*memEntry).hash)
	}
}

// Lookup consults the memory tier then the store tier, never executing. A
// store hit is promoted into memory.
func (c *CellCache) Lookup(spec CellSpec) (CellResult, CellTier, bool) {
	hash := spec.Hash()
	c.mu.Lock()
	if el, ok := c.entries[hash]; ok {
		c.order.MoveToFront(el)
		c.stats.MemHits++
		res := el.Value.(*memEntry).result
		c.mu.Unlock()
		return res, TierMem, true
	}
	if c.store == nil {
		c.mu.Unlock()
		return CellResult{}, "", false
	}
	c.stats.DiskReads++
	c.mu.Unlock()
	res, ok, corrupt := loadCell(c.store, spec)
	if !ok {
		if corrupt {
			c.mu.Lock()
			c.stats.CorruptEntries++
			c.mu.Unlock()
		}
		return CellResult{}, "", false
	}
	c.mu.Lock()
	c.stats.DiskHits++
	c.insertLocked(hash, res)
	c.mu.Unlock()
	return res, TierDisk, true
}

// GetOrExecute returns the cell's result: from memory, else from disk,
// else by executing the cell and storing the result in both tiers.
// Concurrent calls for the same cell coalesce — exactly one executes, the
// rest wait for its result and report TierCoalesced.
func (c *CellCache) GetOrExecute(spec CellSpec) (CellResult, CellTier, error) {
	return c.do(spec, spec.Execute)
}

// do is GetOrExecute with an injectable executor (tests gate it to pin
// down coalescing).
func (c *CellCache) do(spec CellSpec, exec func() (CellResult, error)) (CellResult, CellTier, error) {
	hash := spec.Hash()
	c.mu.Lock()
	res, hit, fc, leader := c.claimLocked(hash)
	c.mu.Unlock()
	if hit {
		return res, TierMem, nil
	}
	if !leader {
		return fc.wait()
	}
	settled := false
	defer func() {
		if !settled {
			c.abandon(hash, fc)
		}
	}()

	// Leader path: store, then execution. No lock is held during I/O or
	// cell execution.
	tier := TierDisk
	var err error
	storeFailed := false
	res, hit = c.loadStored(spec)
	if !hit {
		tier = TierExec
		start := time.Now()
		res, err = exec()
		// A cache-write failure must not masquerade as an execution
		// failure: the result is correct, only the store tier is degraded
		// (full disk, read-only directory, unreachable remote). Keep the
		// result, serve it to every coalesced waiter, and count the store
		// error.
		if err == nil {
			storeFailed = storeCell(c.store, spec, res, float64(time.Since(start).Microseconds())/1000) != nil
		}
	}
	c.settle(hash, fc, res, err, hit, storeFailed)
	settled = true
	if err != nil {
		return CellResult{}, tier, err
	}
	return res, tier, nil
}

// packOutcome is one cell's result from doPack.
type packOutcome struct {
	res  CellResult
	tier CellTier
	err  error
}

// doPack runs a pack of cells whose results one batch execution already
// produced — results[i] for specs[i], or execErr for all of them —
// through the cache exactly as do would cell by cell (memory tier,
// singleflight, store read, counters), except that the executed entries
// are committed with a single store PutBatch, elapsed being the per-cell
// share of the batch execution. It returns after that commit, so a caller
// counting the cells done knows they are stored. A failed commit counts
// one StoreErrors per entry and the results are still served.
//
// Flights this pack leads never wait on another flight: cells already in
// flight elsewhere are awaited only after the pack settles its own, so
// two packs sharing cells cannot deadlock.
func (c *CellCache) doPack(specs []CellSpec, results []CellResult, execErr error, elapsed time.Duration) []packOutcome {
	out := make([]packOutcome, len(specs))
	hashes := make([]string, len(specs))
	for i, spec := range specs {
		hashes[i] = spec.Hash()
	}
	flights := make([]*flightCall, len(specs))
	leads := make([]bool, len(specs))
	c.mu.Lock()
	for i, h := range hashes {
		var hit bool
		out[i].res, hit, flights[i], leads[i] = c.claimLocked(h)
		if hit {
			out[i].tier = TierMem
		}
	}
	c.mu.Unlock()
	settled := false
	defer func() {
		if settled {
			return
		}
		for i, fc := range flights {
			if leads[i] {
				c.abandon(hashes[i], fc)
			}
		}
	}()

	storeFailed := make([]bool, len(specs))
	elapsedMS := float64(elapsed.Microseconds()) / 1000
	var items []store.Item
	var bufs []*bytes.Buffer
	var batched []int
	for i, spec := range specs {
		if !leads[i] {
			continue
		}
		if res, ok := c.loadStored(spec); ok {
			out[i] = packOutcome{res: res, tier: TierDisk}
			continue
		}
		out[i].tier = TierExec
		if execErr != nil {
			out[i].err = execErr
			continue
		}
		out[i].res = results[i]
		if c.store == nil {
			continue
		}
		buf, err := encodeCellEntry(spec, results[i], elapsedMS)
		if err != nil {
			storeFailed[i] = true
			continue
		}
		bufs = append(bufs, buf)
		items = append(items, store.Item{Key: hashes[i], Value: buf.Bytes()})
		batched = append(batched, i)
	}
	if len(items) > 0 && c.store.PutBatch(items) != nil {
		for _, i := range batched {
			storeFailed[i] = true
		}
	}
	for _, buf := range bufs {
		putEntryBuf(buf)
	}
	for i, fc := range flights {
		if leads[i] {
			c.settle(hashes[i], fc, out[i].res, out[i].err, out[i].tier == TierDisk, storeFailed[i])
		}
	}
	settled = true
	for i, fc := range flights {
		if fc != nil && !leads[i] {
			out[i].res, out[i].tier, out[i].err = fc.wait()
		}
	}
	return out
}

// claimLocked resolves hash against the memory tier and the in-flight
// table: a memory hit returns the result; otherwise fc is the flight to
// join, or — when leader — a new flight the caller now owns and must
// settle (or abandon). Callers hold c.mu.
func (c *CellCache) claimLocked(hash string) (res CellResult, hit bool, fc *flightCall, leader bool) {
	if el, ok := c.entries[hash]; ok {
		c.order.MoveToFront(el)
		c.stats.MemHits++
		return el.Value.(*memEntry).result, true, nil, false
	}
	if fc, ok := c.flight[hash]; ok {
		c.stats.Coalesced++
		return CellResult{}, false, fc, false
	}
	fc = &flightCall{done: make(chan struct{})}
	c.flight[hash] = fc
	return CellResult{}, false, fc, true
}

// wait blocks until the flight's leader settles and returns its outcome.
func (fc *flightCall) wait() (CellResult, CellTier, error) {
	<-fc.done
	if fc.err != nil {
		return CellResult{}, TierCoalesced, fc.err
	}
	return fc.result, TierCoalesced, nil
}

// loadStored is a leader's store-tier read, counted in DiskReads (and
// CorruptEntries when the entry is damaged).
func (c *CellCache) loadStored(spec CellSpec) (CellResult, bool) {
	if c.store == nil {
		return CellResult{}, false
	}
	c.mu.Lock()
	c.stats.DiskReads++
	c.mu.Unlock()
	res, hit, corrupt := loadCell(c.store, spec)
	if corrupt {
		c.mu.Lock()
		c.stats.CorruptEntries++
		c.mu.Unlock()
	}
	return res, hit
}

// settle publishes a leader's outcome: counters, the memory tier on
// success, and the result or error to every coalesced waiter.
func (c *CellCache) settle(hash string, fc *flightCall, res CellResult, err error, hit, storeFailed bool) {
	c.mu.Lock()
	if err == nil {
		if hit {
			c.stats.DiskHits++
		} else {
			c.stats.Executed++
		}
		if storeFailed {
			c.stats.StoreErrors++
		}
		c.insertLocked(hash, res)
	} else {
		c.stats.ExecErrors++
	}
	delete(c.flight, hash)
	c.mu.Unlock()
	fc.result, fc.err = res, err
	close(fc.done)
}

// abandon releases a flight whose leader panicked, unblocking every
// coalesced waiter with an error: a leaked flight entry would otherwise
// hang all future requests for this cell forever.
func (c *CellCache) abandon(hash string, fc *flightCall) {
	c.mu.Lock()
	delete(c.flight, hash)
	c.mu.Unlock()
	fc.err = fmt.Errorf("scenario: cell %s: execution panicked", hash)
	close(fc.done)
}
