package metrics

// Overlap summarises the copy/compute overlap on the transfer runtime's
// modeled channel (kvcache.TransferRuntime): how much modeled channel time
// was spent moving KV pages, and how much of it did not fit behind modeled
// compute. BusySec − ExposedSec is the transfer time hidden behind compute —
// the quantity the overlap experiment optimises.
type Overlap struct {
	// Transfers is the number of serviced transfer requests (fetches,
	// prefetches and accounting-only offloads).
	Transfers int64
	// Pages is the total number of KV pages moved across the channel.
	Pages int64
	// BusySec is the total modeled channel-busy time in seconds.
	BusySec float64
	// ExposedSec is the portion of BusySec compute was blocked on (per
	// transfer, clamped to its own modeled duration).
	ExposedSec float64
	// PrefetchedPages counts pages promoted speculatively by layer-ahead
	// prefetch; PrefetchHits counts those later requested by an exact fetch
	// while still device-resident.
	PrefetchedPages int64
	PrefetchHits    int64
}

// HiddenSec returns the transfer time overlapped with compute.
func (o Overlap) HiddenSec() float64 {
	h := o.BusySec - o.ExposedSec
	if h < 0 {
		return 0
	}
	return h
}

// HiddenFrac returns HiddenSec as a fraction of BusySec (0 when idle).
func (o Overlap) HiddenFrac() float64 {
	if o.BusySec <= 0 {
		return 0
	}
	return o.HiddenSec() / o.BusySec
}

// PrefetchHitRate returns PrefetchHits / PrefetchedPages (0 when no
// prefetches were issued).
func (o Overlap) PrefetchHitRate() float64 {
	if o.PrefetchedPages == 0 {
		return 0
	}
	return float64(o.PrefetchHits) / float64(o.PrefetchedPages)
}
