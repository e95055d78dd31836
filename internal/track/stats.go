// Tracker statistics: the one-call summary load generators and operational
// dashboards poll. Everything here is readable lock-free or under one short
// shard read lock — Stats never stalls commits.
package track

import "mixedclock/internal/vclock"

// TrackerStats is a point-in-time summary of a tracker's clock and storage
// lifecycle. The first block is current state (Events and Size plus the
// epoch, backend and sealed-history shape, gathered in one call); the counters
// in the second block are cumulative over the tracker's lifetime — they only
// grow, across epochs and compaction passes, so two snapshots subtract into
// rates. cmd/loadgen prints one of these after every run.
type TrackerStats struct {
	// Events is the number of committed operations; SealedEvents of them
	// live in immutable segments, and events below RetainedEvents were
	// retired by retention (replay starts at the floor).
	Events         int `json:"events"`
	SealedEvents   int `json:"sealed_events"`
	RetainedEvents int `json:"retained_events"`
	// Width is the current mixed-clock width (the live cover size) and
	// Backend the resolved clock representation; Epoch counts Compact
	// barriers.
	Width   int            `json:"width"`
	Backend vclock.Backend `json:"-"`
	Epoch   int            `json:"epoch"`
	// Segments is the sealed-history length, SpilledBytes the on-disk
	// total across spilled segments, CatalogGen the published catalog
	// generation (bumped by every sealed-history change).
	Segments     int   `json:"segments"`
	SpilledBytes int64 `json:"spilled_bytes"`
	CatalogGen   int64 `json:"catalog_gen"`
	// Seals counts successful seal passes; CompactionPasses ran tiered
	// segment compaction, eliminating CompactedSegments source segments
	// (beyond their merged replacements); RetentionPasses retired
	// RetiredSegments graduated segments.
	Seals             int64 `json:"seals"`
	CompactionPasses  int64 `json:"compaction_passes"`
	CompactedSegments int64 `json:"compacted_segments"`
	RetentionPasses   int64 `json:"retention_passes"`
	RetiredSegments   int64 `json:"retired_segments"`
}

// Stats gathers the tracker's current lifecycle summary. The snapshot is
// internally consistent for the sealed-history fields (they come from one
// immutable hist value); Events and Width are independent atomic loads, so
// under concurrent commits they may run slightly ahead. Stats never blocks
// commits; Epoch and Backend are read under one short shard read lock.
func (t *Tracker) Stats() TrackerStats {
	t.world.RLock(0)
	epoch, backend := t.epoch, t.backend
	t.world.RUnlock(0)
	st := t.hist.Load()
	var spilled int64
	for _, sg := range st.segs {
		if sg.file != "" {
			spilled += sg.size
		}
	}
	return TrackerStats{
		Events:            t.Events(),
		SealedEvents:      int(t.sealed.Load()),
		RetainedEvents:    st.retained,
		Width:             t.Size(),
		Backend:           backend,
		Epoch:             epoch,
		Segments:          len(st.segs),
		SpilledBytes:      spilled,
		CatalogGen:        st.gen,
		Seals:             t.sealPasses.Load(),
		CompactionPasses:  t.compactPasses.Load(),
		CompactedSegments: t.compactedSegs.Load(),
		RetentionPasses:   t.retainPasses.Load(),
		RetiredSegments:   t.retiredSegs.Load(),
	}
}
