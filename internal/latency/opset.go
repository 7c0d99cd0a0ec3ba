package latency

import "time"

// Op is a latency op class. The classes mirror the data operations every
// layer of the stack shares: scalar reads, batched reads, scalar writes,
// batched writes, and read-modify-write. Layers that see more operations
// than this fold them into the nearest class (the server counts PEEK as
// a Get and DELETE as a Put, and times an APPLY frame as the RMW it runs);
// layers that see fewer leave the unused class empty.
type Op int

const (
	OpGet Op = iota
	OpGetBatch
	OpPut
	OpPutBatch
	OpRMW
	NumOps
)

// String returns the class name as it appears in expvar and tool output.
func (o Op) String() string {
	switch o {
	case OpGet:
		return "get"
	case OpGetBatch:
		return "get_batch"
	case OpPut:
		return "put"
	case OpPutBatch:
		return "put_batch"
	case OpRMW:
		return "rmw"
	}
	return "unknown"
}

// OpSet is one histogram per op class. The zero value is ready to use;
// like Histogram, every method is lock-free and allocation-free.
type OpSet [NumOps]Histogram

// Record adds one observation to the class's histogram.
func (s *OpSet) Record(op Op, d time.Duration) {
	s[op].Record(d)
}

// Since records the elapsed time from start into the class's histogram.
func (s *OpSet) Since(op Op, start time.Time) {
	s[op].Record(time.Since(start))
}

// Snapshot summarizes every class.
func (s *OpSet) Snapshot() [NumOps]Snapshot {
	var out [NumOps]Snapshot
	for i := range s {
		out[i] = s[i].Snapshot()
	}
	return out
}
