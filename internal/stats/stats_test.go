package stats

import (
	"reflect"
	"testing"

	"github.com/llm-db/mlkv-go/internal/latency"
)

// distinct returns Counters with every int64 — latency summaries included
// — set to a different value, counting up from base.
func distinct(base int64) Counters {
	var c Counters
	for i, s := range c.slots() {
		*s = base + int64(i)
	}
	return c
}

// TestTableCoversStruct is the drift guard: a Counters field missing from
// the table would silently read zero after Add, Sub and the wire, so the
// table must name every field exactly once, in struct order (the struct's
// JSON encoding is the expvar view and should read like the wire), with
// an accessor that points at the field it names.
func TestTableCoversStruct(t *testing.T) {
	typ := reflect.TypeOf(Counters{})
	if typ.NumField() != len(fields) {
		t.Fatalf("Counters has %d fields, the table %d rows", typ.NumField(), len(fields))
	}
	var c Counters
	base := reflect.ValueOf(&c).Elem()
	seen := map[string]bool{}
	for i, f := range fields {
		sf := typ.Field(i)
		if seen[f.name] {
			t.Fatalf("row %d: %q appears twice", i, f.name)
		}
		seen[f.name] = true
		if sf.Name != f.name {
			t.Fatalf("row %d is %q, struct field %d is %q", i, f.name, i, sf.Name)
		}
		var got any
		switch sf.Type {
		case reflect.TypeOf(int64(0)):
			if f.kind == kindFold || f.num == nil || f.lat != nil {
				t.Fatalf("%s: int64 field needs a sum/max row with a num accessor", f.name)
			}
			got = f.num(&c)
		case reflect.TypeOf(latency.Snapshot{}):
			if f.kind != kindFold || f.lat == nil || f.num != nil {
				t.Fatalf("%s: latency field needs a fold row with a lat accessor", f.name)
			}
			got = f.lat(&c)
		default:
			t.Fatalf("%s: unsupported field type %s", f.name, sf.Type)
		}
		if want := base.Field(i).Addr().Interface(); got != want {
			t.Fatalf("%s: accessor points at another field", f.name)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c := distinct(1)
	p := c.Encode()
	got, err := Decode(p)
	if err != nil || got != c {
		t.Fatalf("round trip: err=%v\n got %+v\nwant %+v", err, got, c)
	}
	// Every truncation, a trailing byte, and a wrong declared count are
	// malformed frames: the count is exact, not a prefix to tolerate.
	for cut := 0; cut < len(p); cut++ {
		if _, err := Decode(p[:cut]); err == nil {
			t.Fatalf("accepted %d/%d-byte prefix", cut, len(p))
		}
	}
	if _, err := Decode(append(append([]byte{}, p...), 0)); err == nil {
		t.Fatal("accepted a trailing byte")
	}
	bad := append([]byte{}, p...)
	bad[0]++
	if _, err := Decode(bad); err == nil {
		t.Fatal("accepted a wrong slot count")
	}
}

func TestAddSubByKind(t *testing.T) {
	a, b := distinct(1000), distinct(1)
	sum, rev, diff := a.Add(b), b.Add(a), a.Add(b).Sub(b)
	for _, f := range fields {
		switch f.kind {
		case kindSum:
			if got, want := *f.num(&sum), *f.num(&a)+*f.num(&b); got != want {
				t.Errorf("%s: Add = %d, want the sum %d", f.name, got, want)
			}
			if got, want := *f.num(&diff), *f.num(&a); got != want {
				t.Errorf("%s: Sub(Add(a,b),b) = %d, want %d", f.name, got, want)
			}
		case kindMax:
			if got, want := *f.num(&sum), *f.num(&a); got != want { // a's values are the larger
				t.Errorf("%s: Add = %d, want the max %d", f.name, got, want)
			}
			if got := *f.num(&rev); got != *f.num(&a) {
				t.Errorf("%s: max is not symmetric", f.name)
			}
		case kindFold:
			x, y, got := f.lat(&a), f.lat(&b), f.lat(&sum)
			want := latency.Snapshot{
				Count: x.Count + y.Count, Sum: x.Sum + y.Sum,
				Max: x.Max, P50: x.P50, P90: x.P90, P99: x.P99, P999: x.P999,
			}
			if *got != want {
				t.Errorf("%s: Add = %+v, want counts and sums added, the rest the worst side %+v", f.name, *got, want)
			}
			if d := f.lat(&diff); d.Count != x.Count || d.Sum != x.Sum {
				t.Errorf("%s: Sub(Add(a,b),b) = count %d sum %d, want %d %d", f.name, d.Count, d.Sum, x.Count, x.Sum)
			}
		}
	}
}

func TestSetLatency(t *testing.T) {
	var set latency.OpSet
	for op := latency.Op(0); op < latency.NumOps; op++ {
		for i := 0; i <= int(op); i++ {
			set.Record(op, 1000)
		}
	}
	var c Counters
	c.SetLatency(&set)
	for i, got := range []latency.Snapshot{c.LatGet, c.LatGetBatch, c.LatPut, c.LatPutBatch, c.LatRMW} {
		if got.Count != int64(i+1) {
			t.Errorf("latency class %s landed in the wrong field: count %d, want %d", latency.Op(i), got.Count, i+1)
		}
	}
}

// TestClusterMergeRules pins the kinds the merged cluster view depends on:
// scalars (the session gauge included) sum across nodes, ReplicaLag
// reports the laggiest replica, and the topology gauges do not add up.
func TestClusterMergeRules(t *testing.T) {
	a := Counters{Gets: 2, ActiveSessions: 1, ReplicaLag: 3, ClusterNodes: 3, ClusterEpoch: 7}
	b := Counters{Gets: 5, ActiveSessions: 2, ReplicaLag: 9, ClusterNodes: 3, ClusterEpoch: 8}
	want := Counters{Gets: 7, ActiveSessions: 3, ReplicaLag: 9, ClusterNodes: 3, ClusterEpoch: 8}
	if got := a.Add(b); got != want {
		t.Fatalf("Add = %+v\nwant %+v", got, want)
	}
}
