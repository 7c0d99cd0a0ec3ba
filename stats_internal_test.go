package mlkv

import (
	"reflect"
	"testing"
	"time"

	"github.com/llm-db/mlkv-go/internal/latency"
	"github.com/llm-db/mlkv-go/internal/stats"
)

// TestStatsFieldsComeFromSameNamedCounters guards the one conversion left
// in the counter chain: with every stats.Counters field holding a distinct
// sentinel, each mlkv.Stats field must carry the sentinel of the Counters
// field with its own name — no field left zero, none cross-wired (such as
// DiskReads ← MemHits).
func TestStatsFieldsComeFromSameNamedCounters(t *testing.T) {
	var c stats.Counters
	cv := reflect.ValueOf(&c).Elem()
	next := int64(1000)
	for i := 0; i < cv.NumField(); i++ {
		switch f := cv.Field(i).Addr().Interface().(type) {
		case *int64:
			*f = next
			next++
		case *latency.Snapshot:
			// Sum a multiple of Count, so the derived Mean is a sentinel too.
			*f = latency.Snapshot{Count: 10, Sum: 10 * next, Max: next + 1, P50: next + 2, P90: next + 3, P99: next + 4, P999: next + 5}
			next += 6
		}
	}
	got := reflect.ValueOf(statsOf(c))
	for i := 0; i < got.NumField(); i++ {
		name := got.Type().Field(i).Name
		src := cv.FieldByName(name)
		if !src.IsValid() {
			t.Errorf("Stats.%s has no same-named stats.Counters field", name)
			continue
		}
		switch v := got.Field(i).Interface().(type) {
		case int64:
			if v != src.Int() {
				t.Errorf("Stats.%s = %d, want Counters.%s = %d", name, v, name, src.Int())
			}
		case LatencySummary:
			s := src.Interface().(latency.Snapshot)
			want := LatencySummary{
				Count: s.Count, Mean: time.Duration(s.Sum / s.Count),
				P50: time.Duration(s.P50), P90: time.Duration(s.P90),
				P99: time.Duration(s.P99), P999: time.Duration(s.P999), Max: time.Duration(s.Max),
			}
			if v != want {
				t.Errorf("Stats.%s = %+v, want Counters.%s as durations %+v", name, v, name, want)
			}
		default:
			t.Errorf("Stats.%s has unexpected type %T", name, v)
		}
	}
}
