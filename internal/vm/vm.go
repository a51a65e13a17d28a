// Package vm simulates a paged virtual memory system: a physical frame
// pool shared by processes, a global-clock replacement policy, and a swap
// device with a seek + transfer + clustering cost model.
//
// It reproduces the paper's §5.2 pathology — a streaming, non-interactive
// job evicts an idle interactive application, and the next keystroke pays
// seconds of page-in latency — and implements the fix the paper endorses
// from Evans et al.: reserving physical memory for interactive processes
// and throttling streaming hogs.
package vm

import (
	"fmt"

	"thinbench/internal/simclock"
)

// Config parameterizes the memory system.
type Config struct {
	// PhysicalKB is the machine's physical memory (paper testbed scale:
	// tens of MB).
	PhysicalKB int
	// PageKB is the page size (4 KB on both systems).
	PageKB int
	// SwapSeek is the positioning cost charged once per cluster transfer.
	SwapSeek simclock.Duration
	// SwapPage is the per-page transfer time.
	SwapPage simclock.Duration
	// ClusterPages is the page-in clustering factor (readahead): pages per
	// seek. Linux's swap readahead clusters more aggressively than NT's
	// pagefile reads, one contributor to the paper's 3-4x latency gap.
	ClusterPages int
	// ReserveInteractive, when true, prevents non-interactive processes
	// from evicting interactive processes' frames (the Evans et al.
	// reservation policy). Default off: neither TSE nor Linux protects
	// interactive memory, which is the paper's complaint.
	ReserveInteractive bool
	// HogFrameLimit, when positive, caps the fraction (0..1) of physical
	// frames a single non-interactive process may own, forcing streaming
	// jobs to recycle their own pages (the Evans et al. throttle).
	HogFrameLimit float64
}

// DefaultConfig is a testbed-scale machine: 64 MB RAM, 4 KB pages, and a
// late-90s disk (~8 ms positioning, ~0.5 ms per 4 KB page transfer).
func DefaultConfig() Config {
	return Config{
		PhysicalKB:   64 * 1024,
		PageKB:       4,
		SwapSeek:     8 * simclock.Millisecond,
		SwapPage:     500 * simclock.Microsecond,
		ClusterPages: 8,
	}
}

// Process is an address space: a fixed-size set of virtual pages.
type Process struct {
	Name string
	// Interactive marks the process as interactive for the reservation and
	// throttling policies.
	Interactive bool
	// Pinned pages are never evicted (kernel and wired service memory).
	Pinned bool

	frames   []int32 // per-page frame index, -1 when not resident
	resident int
	id       int32 // 1 + index in the owning Manager's procs; never 0
}

// Pages reports the process's virtual size in pages.
func (p *Process) Pages() int { return len(p.frames) }

// Resident reports the number of resident pages.
func (p *Process) Resident() int { return p.resident }

// IsResident reports whether virtual page i is in memory.
func (p *Process) IsResident(i int) bool { return p.frames[i] >= 0 }

// frame is one physical page. It holds no pointer — the owner is a
// process id resolved through Manager.procs — so the frame table is
// invisible to the garbage collector: the collector never scans it, and
// the per-touch writes that retag a frame pay no write barrier.
type frame struct {
	owner int32 // the owning process's id; 0 for a free frame
	page  int32
	ref   bool
}

// ownerOf reports the process owning fr, nil for a free frame.
func (m *Manager) ownerOf(fr *frame) *Process {
	if fr.owner == 0 {
		return nil
	}
	return m.procs[fr.owner-1]
}

// Stats counts memory system activity.
type Stats struct {
	Faults     int64 // page faults (touches to non-resident pages)
	Evictions  int64 // frames reclaimed from a process
	ClockSweep int64 // frames examined by the clock hand
	SelfEvict  int64 // evictions forced by the hog throttle
}

// Manager is the physical memory manager.
type Manager struct {
	cfg    Config
	frames []frame
	free   []int32 // free frame list
	hand   int32   // clock hand
	procs  []*Process
	stats  Stats
}

// New builds a manager for the configured physical memory.
func New(cfg Config) *Manager {
	if cfg.PageKB <= 0 {
		cfg.PageKB = 4
	}
	if cfg.ClusterPages <= 0 {
		cfg.ClusterPages = 1
	}
	n := cfg.PhysicalKB / cfg.PageKB
	if n <= 0 {
		panic("vm: no physical memory configured")
	}
	m := &Manager{cfg: cfg, frames: make([]frame, n), free: make([]int32, 0, n)}
	for i := n - 1; i >= 0; i-- {
		m.frames[i].page = -1
		m.free = append(m.free, int32(i))
	}
	return m
}

// Config reports the active configuration.
func (m *Manager) Config() Config { return m.cfg }

// Stats reports cumulative activity counters.
func (m *Manager) Stats() Stats { return m.stats }

// TotalPages reports physical memory size in pages.
func (m *Manager) TotalPages() int { return len(m.frames) }

// FreePages reports the current free frame count.
func (m *Manager) FreePages() int { return len(m.free) }

// FreeKB reports free memory in KB.
func (m *Manager) FreeKB() int { return len(m.free) * m.cfg.PageKB }

// ResidentKB reports a process's resident set in KB.
func (m *Manager) ResidentKB(p *Process) int { return p.resident * m.cfg.PageKB }

// NewProcess creates a process with sizeKB of virtual memory, initially
// fully non-resident.
func (m *Manager) NewProcess(name string, sizeKB int) *Process {
	pages := (sizeKB + m.cfg.PageKB - 1) / m.cfg.PageKB
	p := &Process{Name: name, frames: make([]int32, pages), id: int32(len(m.procs)) + 1}
	for i := range p.frames {
		p.frames[i] = -1
	}
	m.procs = append(m.procs, p)
	return p
}

// Touch references virtual page i of p, faulting it in if needed.
// It reports whether a fault occurred.
//
//thinlint:hotpath
func (m *Manager) Touch(p *Process, i int) bool {
	if i < 0 || i >= len(p.frames) {
		panic(fmt.Sprintf("vm: touch out of range: page %d of %d-page process %s", i, len(p.frames), p.Name))
	}
	if f := p.frames[i]; f >= 0 {
		m.frames[f].ref = true
		return false
	}
	m.stats.Faults++
	f := m.allocFrame(p)
	m.frames[f] = frame{owner: p.id, page: int32(i), ref: true}
	p.frames[i] = f
	p.resident++
	return true
}

// TouchAll references every page of p in order, returning the fault count.
func (m *Manager) TouchAll(p *Process) int {
	faults := 0
	for i := range p.frames {
		if m.Touch(p, i) {
			faults++
		}
	}
	return faults
}

// TouchSpan references pages covering [startKB, startKB+lenKB), returning
// the fault count.
func (m *Manager) TouchSpan(p *Process, startKB, lenKB int) int {
	first := startKB / m.cfg.PageKB
	last := (startKB + lenKB - 1) / m.cfg.PageKB
	faults := 0
	for i := first; i <= last && i < len(p.frames); i++ {
		if m.Touch(p, i) {
			faults++
		}
	}
	return faults
}

// Evict removes virtual page i of p from memory (no-op when not resident).
//
//thinlint:hotpath
func (m *Manager) Evict(p *Process, i int) {
	f := p.frames[i]
	if f < 0 {
		return
	}
	m.frames[f] = frame{page: -1}
	p.frames[i] = -1
	p.resident--
	m.free = append(m.free, f)
	m.stats.Evictions++
}

// EvictAll removes every resident page of p (process exit).
func (m *Manager) EvictAll(p *Process) {
	for i := range p.frames {
		m.Evict(p, i)
	}
}

// allocFrame finds a frame for p, reclaiming one when memory is full.
//
//thinlint:hotpath
func (m *Manager) allocFrame(p *Process) int32 {
	// Hog throttle: a capped process past its limit must recycle its own
	// frames even if free memory exists elsewhere.
	if m.cfg.HogFrameLimit > 0 && !p.Interactive {
		limit := int(m.cfg.HogFrameLimit * float64(len(m.frames)))
		if p.resident >= limit {
			if f := m.reclaimFrom(p); f >= 0 {
				m.stats.SelfEvict++
				return f
			}
		}
	}
	if n := len(m.free); n > 0 {
		f := m.free[n-1]
		m.free = m.free[:n-1]
		return f
	}
	return m.clockReclaim(p)
}

// clockReclaim runs the global clock over frames: referenced frames get a
// second chance; the first unreferenced, unpinned, policy-eligible frame is
// reclaimed. Guaranteed to terminate: after two full sweeps every
// reclaimable frame has had its reference bit cleared.
//
//thinlint:hotpath
func (m *Manager) clockReclaim(for_ *Process) int32 {
	n := int32(len(m.frames))
	protectInteractive := m.cfg.ReserveInteractive && !for_.Interactive
	var fallback int32 = -1
	for sweep := int32(0); sweep < 3*n; sweep++ {
		i := m.hand
		m.hand = (m.hand + 1) % n
		fr := &m.frames[i]
		m.stats.ClockSweep++
		owner := m.ownerOf(fr)
		if owner == nil || owner.Pinned {
			continue
		}
		if protectInteractive && owner.Interactive {
			if fallback < 0 {
				fallback = i // reclaim only if nothing else exists
			}
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		return m.takeFrame(i)
	}
	if fallback >= 0 {
		return m.takeFrame(fallback)
	}
	panic("vm: out of memory: all frames pinned")
}

// reclaimFrom reclaims one of p's own frames (oldest by clock order),
// or -1 when p has none resident.
//
//thinlint:hotpath
func (m *Manager) reclaimFrom(p *Process) int32 {
	n := int32(len(m.frames))
	var candidate int32 = -1
	for sweep := int32(0); sweep < 2*n; sweep++ {
		i := m.hand
		m.hand = (m.hand + 1) % n
		fr := &m.frames[i]
		if fr.owner != p.id {
			continue
		}
		if fr.ref {
			fr.ref = false
			if candidate < 0 {
				candidate = i
			}
			continue
		}
		return m.takeFrame(i)
	}
	if candidate >= 0 {
		return m.takeFrame(candidate)
	}
	return -1
}

// takeFrame detaches frame i from its owner and returns it.
//
//thinlint:hotpath
func (m *Manager) takeFrame(i int32) int32 {
	fr := &m.frames[i]
	if owner := m.ownerOf(fr); owner != nil {
		owner.frames[fr.page] = -1
		owner.resident--
		m.stats.Evictions++
	}
	*fr = frame{page: -1}
	return i
}

// FaultCost converts a fault count into page-in time under the clustering
// disk model: one seek per cluster plus a per-page transfer.
func (m *Manager) FaultCost(faults int) simclock.Duration {
	if faults <= 0 {
		return 0
	}
	clusters := (faults + m.cfg.ClusterPages - 1) / m.cfg.ClusterPages
	return simclock.Duration(clusters)*m.cfg.SwapSeek + simclock.Duration(faults)*m.cfg.SwapPage
}

// CheckInvariants validates internal accounting: every resident page maps to
// a frame owned by it, resident+free counts add up, and no frame is double
// mapped. Used by property tests and available to callers as a debugging
// aid; it returns an error describing the first violation found.
func (m *Manager) CheckInvariants() error {
	used := 0
	for fi := range m.frames {
		fr := m.frames[fi]
		owner := m.ownerOf(&fr)
		if owner == nil {
			continue
		}
		used++
		if fr.page < 0 || int(fr.page) >= len(owner.frames) {
			return fmt.Errorf("frame %d maps out-of-range page %d of %s", fi, fr.page, owner.Name)
		}
		if owner.frames[fr.page] != int32(fi) {
			return fmt.Errorf("frame %d and process %s disagree about page %d", fi, owner.Name, fr.page)
		}
	}
	if used+len(m.free) != len(m.frames) {
		return fmt.Errorf("frame leak: %d used + %d free != %d total", used, len(m.free), len(m.frames))
	}
	for _, p := range m.procs {
		count := 0
		for _, f := range p.frames {
			if f >= 0 {
				count++
			}
		}
		if count != p.resident {
			return fmt.Errorf("process %s resident count %d != actual %d", p.Name, p.resident, count)
		}
	}
	return nil
}
