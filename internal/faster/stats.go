package faster

import (
	"sync/atomic"

	"github.com/llm-db/mlkv-go/internal/stats"
)

// Stats is one block of operation counters: every Session owns one for the
// operations it runs and the Store one for its flusher (Store.Stats sums
// them). All fields are updated with atomics on the hot path and read via
// snapshot.
type Stats struct {
	Gets             atomic.Int64
	Puts             atomic.Int64
	RMWs             atomic.Int64
	Deletes          atomic.Int64
	MemHits          atomic.Int64
	DiskReads        atomic.Int64
	InPlaceUpdates   atomic.Int64
	RCUAppends       atomic.Int64
	PrefetchCopies   atomic.Int64
	AbandonedAppends atomic.Int64
	StalenessWaits   atomic.Int64
	FlushedPages     atomic.Int64
	BytesFlushed     atomic.Int64
	GroupCommits     atomic.Int64 // multi-page flush writes (group commit)
	FlushPaceStalls  atomic.Int64 // pacing sleeps taken between flush writes
}

// snapshot copies the engine counters into the shared counter record.
func (s *Stats) snapshot() stats.Counters {
	return stats.Counters{
		Gets:             s.Gets.Load(),
		Puts:             s.Puts.Load(),
		RMWs:             s.RMWs.Load(),
		Deletes:          s.Deletes.Load(),
		MemHits:          s.MemHits.Load(),
		DiskReads:        s.DiskReads.Load(),
		InPlaceUpdates:   s.InPlaceUpdates.Load(),
		RCUAppends:       s.RCUAppends.Load(),
		PrefetchCopies:   s.PrefetchCopies.Load(),
		AbandonedAppends: s.AbandonedAppends.Load(),
		StalenessWaits:   s.StalenessWaits.Load(),
		FlushedPages:     s.FlushedPages.Load(),
		BytesFlushed:     s.BytesFlushed.Load(),
		GroupCommits:     s.GroupCommits.Load(),
		FlushPaceStalls:  s.FlushPaceStalls.Load(),
	}
}
