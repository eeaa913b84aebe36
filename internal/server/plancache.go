package server

// planCache holds compiled certain-answer plan templates, keyed by
// setting ID plus the query's shape (qplan.SettingPlan.ShapeOf): the
// query without its name, with every constant the setting never
// mentions lifted into a parameter. Compiling is cheap next to a chase
// but not free (unfolding is exponential in the worst case, bounded by
// the disjunct budget), and serving workloads ask few shapes with many
// constants — so one template per shape is cached LRU, each request
// binds its own constants into it, and hit/miss counters feed /metrics.

import (
	"container/list"
	"sync"

	"repro/internal/qplan"
	"repro/pde"
)

// planCacheMaxEntries bounds the number of cached templates. Templates
// are small (a few disjuncts of a few atoms), so a count bound
// suffices.
const planCacheMaxEntries = 4096

type planKey struct {
	settingID string
	shape     string
}

type planCacheEntry struct {
	key  planKey
	tmpl *qplan.Template
	err  error // non-nil for shapes the setting plan refuses (plan-too-large)
}

// planCache is a mutex-guarded LRU. Negative results (a typed
// compile-time fallback) are cached too, so repeated over-budget
// queries don't recompile the unfolding each time; that is sound per
// shape because the unfolding's size depends on the shape alone.
type planCache struct {
	mu    sync.Mutex
	max   int
	items map[planKey]*list.Element
	order *list.List // front = most recently used
}

func newPlanCache(max int) *planCache {
	return &planCache{
		max:   max,
		items: make(map[planKey]*list.Element),
		order: list.New(),
	}
}

// get returns the plan of q, bound from its shape's cached template or
// from one compiled (and cached) now. hit reports whether the template
// came from the cache. err is the compile error, if any — cached
// alongside the template. q must already validate against the
// setting's target schema, so that every error is the shape's.
func (pc *planCache) get(c *Compiled, q pde.UCQ) (plan *pde.Plan, hit bool, err error) {
	shape, params := c.Plan.ShapeOf(q)
	e, hit := pc.template(c, planKey{settingID: c.ID, shape: shape}, q)
	if e.err != nil {
		return nil, hit, e.err
	}
	return e.tmpl.Bind(q[0].Name, params), hit, nil
}

// template returns the cache entry for key, compiling q's shape on a
// miss.
func (pc *planCache) template(c *Compiled, key planKey, q pde.UCQ) (*planCacheEntry, bool) {
	pc.mu.Lock()
	if el, ok := pc.items[key]; ok {
		pc.order.MoveToFront(el)
		pc.mu.Unlock()
		return el.Value.(*planCacheEntry), true
	}
	pc.mu.Unlock()

	// Compile outside the lock: templates are deterministic, so two
	// racing compilations of the same key produce interchangeable values.
	tmpl, err := c.Plan.CompileTemplate(q)
	e := &planCacheEntry{key: key, tmpl: tmpl, err: err}

	pc.mu.Lock()
	defer pc.mu.Unlock()
	if el, ok := pc.items[key]; ok {
		// Lost the race; the first insert wins.
		pc.order.MoveToFront(el)
		return el.Value.(*planCacheEntry), true
	}
	pc.items[key] = pc.order.PushFront(e)
	for len(pc.items) > pc.max {
		last := pc.order.Back()
		pc.order.Remove(last)
		delete(pc.items, last.Value.(*planCacheEntry).key)
	}
	return e, false
}

// evictSetting drops every cached plan of one setting (registry
// eviction).
func (pc *planCache) evictSetting(settingID string) {
	pc.mu.Lock()
	for key, el := range pc.items {
		if key.settingID == settingID {
			pc.order.Remove(el)
			delete(pc.items, key)
		}
	}
	pc.mu.Unlock()
}

// len returns the number of cached plans.
func (pc *planCache) len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.items)
}
