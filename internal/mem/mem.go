// Package mem models the physical memory of the simulated machine.
//
// Memory is allocated lazily at page granularity (4 KiB pages of 64-bit
// words) so large sparse address spaces — such as the multi-gigabyte
// synthetic SPEC working sets of the performance evaluation — cost only what
// they touch. Every access carries a fixed latency in cycles; the page table
// walker charges this latency per level, which is what makes a TLB miss
// "slow" relative to a hit and so creates the timing channel the paper
// studies.
//
// Memories support cheap replication via Clone, which shares page frames
// copy-on-write: the parallel security campaigns clone one loaded machine
// per worker, so an N-worker campaign pays the program load once and each
// clone costs only a map copy until (unless) it writes.
package mem

import "fmt"

// PageShift is log2 of the page size.
const PageShift = 12

// PageSize is the page size in bytes.
const PageSize = 1 << PageShift

// WordsPerPage is the number of 64-bit words in a page.
const WordsPerPage = PageSize / 8

// DefaultLatency is the default cost, in cycles, of one memory access. With
// a three-level page walk this yields the 60-cycle miss penalty used
// throughout the evaluation.
const DefaultLatency = 20

// Memory is a lazily-allocated physical memory.
//
// The zero value is not ready to use; call New.
type Memory struct {
	pages   map[uint64]*[WordsPerPage]uint64
	latency uint64
	// owned tracks which pages this Memory may mutate in place. nil means
	// the memory has never been cloned and owns everything (the common,
	// zero-overhead case); after a Clone both sides start owning nothing and
	// copy a page on first write.
	owned map[uint64]bool
	// cache holds recently accessed pages, direct-mapped by the low bits of
	// the page number, short-cutting the map lookup on the page-walk and
	// data paths. A three-level walk reads three table pages in turn, so a
	// single cached page would miss on every PTE read of it; eight slots
	// keep a walk's tables and the data pages around them resident.
	cache [pageCacheSlots]cachedPage
	// Reads and Writes count accesses, for diagnostics and tests.
	Reads  uint64
	Writes uint64
	// loadHook, when set, may rewrite the value returned by Load64 (fault
	// injection: in-DRAM bit rot). See SetLoadHook.
	loadHook LoadHook
}

// pageCacheSlots is the number of page-cache slots; a power of two.
const pageCacheSlots = 8

// cachedPage is one page-cache slot: the page number and its frame, or a
// nil frame when the slot is empty.
type cachedPage struct {
	ppn  uint64
	page *[WordsPerPage]uint64
}

// LoadHook intercepts 64-bit loads for fault injection: it receives the
// physical address and true stored value and returns the value actually
// delivered. It observes every load, including page-table-entry reads.
type LoadHook func(paddr, value uint64) uint64

// SetLoadHook installs h as the memory's fault-injection hook, or removes it
// when h is nil. Clones made with Clone do not inherit the hook: fault
// injection is per-machine campaign state.
func (m *Memory) SetLoadHook(h LoadHook) { m.loadHook = h }

// New returns an empty memory with the given per-access latency in cycles.
// A latency of zero is allowed (infinitely fast memory) and useful in unit
// tests.
func New(latency uint64) *Memory {
	return &Memory{pages: make(map[uint64]*[WordsPerPage]uint64), latency: latency}
}

// Latency returns the per-access cost in cycles.
func (m *Memory) Latency() uint64 { return m.latency }

// page returns the backing page for a physical address for reading, or nil
// for absent pages. Shared (copy-on-write) pages may be returned; callers
// must not write through the result.
func (m *Memory) page(paddr uint64) *[WordsPerPage]uint64 {
	ppn := paddr >> PageShift
	c := &m.cache[ppn&(pageCacheSlots-1)]
	if c.page != nil && c.ppn == ppn {
		return c.page
	}
	p := m.pages[ppn]
	if p != nil {
		*c = cachedPage{ppn, p}
	}
	return p
}

// pageForWrite returns a page this Memory may mutate, allocating it if
// absent and un-sharing it (copying) if it is held copy-on-write.
func (m *Memory) pageForWrite(paddr uint64) *[WordsPerPage]uint64 {
	ppn := paddr >> PageShift
	p := m.pages[ppn]
	switch {
	case p == nil:
		p = new([WordsPerPage]uint64)
		m.pages[ppn] = p
	case m.owned != nil && !m.owned[ppn]:
		cp := *p
		p = &cp
		m.pages[ppn] = p
	}
	if m.owned != nil {
		m.owned[ppn] = true
	}
	m.cache[ppn&(pageCacheSlots-1)] = cachedPage{ppn, p}
	return p
}

// Load64 reads the 64-bit word at physical address paddr, returning the
// value and the access latency. paddr must be 8-byte aligned. Reading an
// unallocated location returns zero, like freshly cleared DRAM.
func (m *Memory) Load64(paddr uint64) (uint64, uint64, error) {
	if paddr%8 != 0 {
		return 0, 0, fmt.Errorf("mem: misaligned 64-bit load at %#x", paddr)
	}
	m.Reads++
	var v uint64
	if p := m.page(paddr); p != nil {
		v = p[(paddr%PageSize)/8]
	}
	if m.loadHook != nil {
		v = m.loadHook(paddr, v)
	}
	return v, m.latency, nil
}

// Store64 writes the 64-bit word at physical address paddr, returning the
// access latency. paddr must be 8-byte aligned.
func (m *Memory) Store64(paddr, value uint64) (uint64, error) {
	if paddr%8 != 0 {
		return 0, fmt.Errorf("mem: misaligned 64-bit store at %#x", paddr)
	}
	m.Writes++
	p := m.pageForWrite(paddr)
	p[(paddr%PageSize)/8] = value
	return m.latency, nil
}

// AllocatedPages returns how many distinct physical pages have been touched
// by stores.
func (m *Memory) AllocatedPages() int { return len(m.pages) }

// Reset drops all contents and counters, returning the memory to its
// post-New state.
func (m *Memory) Reset() {
	m.pages = make(map[uint64]*[WordsPerPage]uint64)
	m.owned = nil
	m.cache = [pageCacheSlots]cachedPage{}
	m.Reads, m.Writes = 0, 0
}

// Clone returns a copy-on-write replica: the clone observes exactly the
// current contents (and inherits the access counters), but writes on either
// side are private to it. The clone costs one map copy; page frames are
// shared until first write, which is what makes per-worker machine
// replication in the parallel campaigns cheap.
//
// Clone updates the receiver's copy-on-write bookkeeping, so calls on the
// same Memory must be serialised by the caller; the returned memories are
// then fully independent and safe for concurrent use (one goroutine each).
func (m *Memory) Clone() *Memory {
	// After a clone neither side owns the shared frames.
	m.owned = make(map[uint64]bool, len(m.pages))
	m.cache = [pageCacheSlots]cachedPage{}
	pages := make(map[uint64]*[WordsPerPage]uint64, len(m.pages))
	for ppn, p := range m.pages {
		pages[ppn] = p
	}
	return &Memory{
		pages:   pages,
		latency: m.latency,
		owned:   make(map[uint64]bool, len(pages)),
		Reads:   m.Reads,
		Writes:  m.Writes,
	}
}
