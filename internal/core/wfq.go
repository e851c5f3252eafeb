package core

// WFQClock is weighted-fair-queueing admission's virtual-clock space:
// per-tenant virtual service behind a stable tenant→slot table, plus
// the global virtual time. Slots are allocated on first sight and never
// move, so the charge and ordering hot paths index plain slices instead
// of hashing maps (see wfqOrder).
//
// A LiveController owns a private clock by default. Handing
// one clock to several controllers via Config.SharedWFQ extends
// weighted fairness across them: every shard bills tenants into the
// same clocks, so a tenant's placements anywhere raise its start tags
// everywhere — the federation layer's cross-shard WFQ. With a single
// controller over a fresh shared clock the admission order is
// bit-identical to the private default.
//
// A WFQClock is not safe for concurrent use; callers serialize access
// (a federation steps its shards sequentially).
type WFQClock struct {
	// slots maps a tenant id to its slot; ids is the inverse.
	slots map[int]int
	ids   []int
	// service is each slot's virtual service: placed intensity divided
	// by tenant weight, accumulated on successful placement only.
	service []float64
	// vtime is the global virtual time — the start tag of the last
	// admission, which denies idle tenants credit for idle spans.
	vtime float64
}

// NewWFQClock returns an empty clock: no tenants, virtual time 0.
func NewWFQClock() *WFQClock {
	return &WFQClock{slots: make(map[int]int)}
}

// slot returns the tenant's stable slot, allocating one on first sight
// with zero virtual service.
func (w *WFQClock) slot(tenant int) int {
	if s, ok := w.slots[tenant]; ok {
		return s
	}
	s := len(w.ids)
	w.slots[tenant] = s
	w.ids = append(w.ids, tenant)
	w.service = append(w.service, 0)
	return s
}
