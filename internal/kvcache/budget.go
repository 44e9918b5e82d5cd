package kvcache

import (
	"fmt"
	"sync"
)

// Accountant tracks aggregate simulated device residency across many
// concurrent sequences against a global budget. Units are per-(layer, head)
// token slots — the same unit as a Sequence's per-head KV budget — so a
// sequence that keeps at most B tokens per head device-resident accounts for
// B slots regardless of the model's layer/head count (every sequence scales
// by the same factor).
//
// The serving engine's arena charges it per live page and admission reserves
// a provisional hold against it, which is what turns the per-sequence Tier
// ledgers into a multi-tenant admission-control policy.
//
// An Accountant is safe for concurrent use.
//
// Two-tier accounting: an accountant built with NewTieredAccountant also
// carries a host-tier capacity. used stays the *total* footprint across both
// tiers; hostUsed is the portion currently marked host-resident (spilled),
// so device residency is used − hostUsed. TryReserve then admits against the
// combined capacity — a request fits if device + host together can hold it —
// and the serving engine keeps the device side under its own capacity by
// moving cold slots host-ward (MoveToHost) between rounds.
type Accountant struct {
	mu       sync.Mutex
	capacity int64 // device capacity
	hostCap  int64 // host capacity (0 = no host tier)
	used     int64 // total footprint, both tiers
	peak     int64
	hostUsed int64
	hostPeak int64
}

// NewAccountant returns an accountant with the given capacity in token
// slots. capacity <= 0 means unlimited.
func NewAccountant(capacity int64) *Accountant {
	return &Accountant{capacity: capacity}
}

// NewTieredAccountant returns an accountant with separate device and host
// capacities. deviceCap <= 0 means unlimited (hostCap is then irrelevant);
// hostCap <= 0 disables the host tier (single-tier behavior).
func NewTieredAccountant(deviceCap, hostCap int64) *Accountant {
	if hostCap < 0 {
		hostCap = 0
	}
	return &Accountant{capacity: deviceCap, hostCap: hostCap}
}

// Capacity returns the configured capacity (<= 0 for unlimited).
func (a *Accountant) Capacity() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.capacity
}

// TryReserve atomically reserves n token slots if they fit, reporting
// whether the reservation was granted. With a host tier configured, the
// reservation is admitted against the combined device + host capacity; the
// caller is responsible for keeping device residency under the device
// capacity via MoveToHost. n must be non-negative.
func (a *Accountant) TryReserve(n int64) bool {
	if n < 0 {
		panic("kvcache: TryReserve with negative size")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.capacity > 0 && a.used+n > a.capacity+a.hostCap {
		return false
	}
	a.used += n
	if a.used > a.peak {
		a.peak = a.used
	}
	return true
}

// HostCapacity returns the host-tier capacity (0 when no host tier).
func (a *Accountant) HostCapacity() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.hostCap
}

// TotalCapacity returns device + host capacity (<= 0 for unlimited).
func (a *Accountant) TotalCapacity() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.capacity <= 0 {
		return a.capacity
	}
	return a.capacity + a.hostCap
}

// HostUsed returns the slots currently marked host-resident.
func (a *Accountant) HostUsed() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.hostUsed
}

// HostPeak returns the high-water mark of host-resident slots.
func (a *Accountant) HostPeak() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.hostPeak
}

// DeviceUsed returns the device-resident slots (total − host).
func (a *Accountant) DeviceUsed() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used - a.hostUsed
}

// MoveToHost marks n currently device-resident slots host-resident (a spill:
// total footprint unchanged, device side shrinks). Panics if n exceeds
// device residency.
func (a *Accountant) MoveToHost(n int64) {
	if n < 0 {
		panic("kvcache: MoveToHost with negative size")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > a.used-a.hostUsed {
		panic(fmt.Sprintf("kvcache: MoveToHost(%d) exceeds %d device-resident slots", n, a.used-a.hostUsed))
	}
	a.hostUsed += n
	if a.hostUsed > a.hostPeak {
		a.hostPeak = a.hostUsed
	}
}

// MoveToDevice marks n host-resident slots device-resident again (unspill).
// Panics if n exceeds host residency.
func (a *Accountant) MoveToDevice(n int64) {
	if n < 0 {
		panic("kvcache: MoveToDevice with negative size")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > a.hostUsed {
		panic(fmt.Sprintf("kvcache: MoveToDevice(%d) exceeds %d host-resident slots", n, a.hostUsed))
	}
	a.hostUsed -= n
}

// Grow reserves n slots unconditionally, even past capacity. The paged arena
// uses it for page allocations: admission control gates *requests* against
// the budget (TryReserve), but an admitted sequence's decode appends must
// never fail mid-flight — growth past capacity shows up in Used/Peak and
// throttles the next admission instead.
func (a *Accountant) Grow(n int64) {
	if n < 0 {
		panic("kvcache: Grow with negative size")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.used += n
	if a.used > a.peak {
		a.peak = a.used
	}
}

// Release returns n previously reserved slots. It panics if more is released
// than is currently reserved (a double-release bug in the caller).
func (a *Accountant) Release(n int64) {
	if n < 0 {
		panic("kvcache: Release with negative size")
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if n > a.used {
		panic(fmt.Sprintf("kvcache: Release(%d) exceeds %d reserved", n, a.used))
	}
	a.used -= n
	if a.hostUsed > a.used {
		// Releasing pages that were accounted host-resident (a spilled
		// sequence retiring) shrinks the host side with them.
		a.hostUsed = a.used
	}
}

// Used returns the currently reserved slot count.
func (a *Accountant) Used() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// Peak returns the high-water mark of reserved slots.
func (a *Accountant) Peak() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.peak
}
