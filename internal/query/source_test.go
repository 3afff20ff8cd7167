package query

import (
	"sort"
	"time"

	"repro/internal/metricstore"
)

// StaticFlow is one fixed flow of a StaticSource.
type StaticFlow struct {
	Store *metricstore.Store
	Now   time.Time
}

// StaticSource serves fixed stores without a registry — the Source the
// engine's tests use, where the data is built once and no pacers run.
type StaticSource map[string]StaticFlow

func (s StaticSource) FlowIDs() []string {
	ids := make([]string, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (s StaticSource) WithFlow(id string, fn func(store *metricstore.Store, now time.Time)) bool {
	f, ok := s[id]
	if !ok {
		return false
	}
	fn(f.Store, f.Now)
	return true
}
