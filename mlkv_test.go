package mlkv_test

import (
	"fmt"
	"sync"
	"testing"

	mlkv "github.com/llm-db/mlkv-go"
)

// connectDir connects a local DB on dir, closed when the test ends.
func connectDir(t *testing.T, dir string) *mlkv.DB {
	t.Helper()
	db, err := mlkv.Connect(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func openModel(t *testing.T, opts ...mlkv.Option) *mlkv.Model {
	t.Helper()
	opts = append([]mlkv.Option{mlkv.WithMemory(8 << 20)}, opts...)
	m, err := connectDir(t, t.TempDir()).Open("test-model", 8, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

func TestOpenGetPut(t *testing.T) {
	m := openModel(t)
	if m.Dim() != 8 || m.ID() != "test-model" {
		t.Fatalf("model metadata wrong: dim=%d id=%q", m.Dim(), m.ID())
	}
	s, err := m.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	emb := make([]float32, 8)
	if err := s.Get(1, emb); err != nil {
		t.Fatal(err)
	}
	want := []float32{1, 2, 3, 4, 5, 6, 7, 8}
	if err := s.Put(1, want); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 8)
	if found, err := s.Peek(1, got); err != nil || !found {
		t.Fatalf("peek: %v %v", found, err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dim %d: %v != %v", i, got[i], want[i])
		}
	}
}

func TestBatchAndRMW(t *testing.T) {
	m := openModel(t, mlkv.WithStalenessBound(mlkv.ASP))
	s, _ := m.NewSession()
	defer s.Close()
	keys := []uint64{10, 11, 12}
	vals := make([]float32, 24)
	for i := range vals {
		vals[i] = float32(i)
	}
	if err := s.PutBatch(keys, vals); err != nil {
		t.Fatal(err)
	}
	got := make([]float32, 24)
	if err := s.GetBatch(keys, got); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBatch(keys, got); err != nil { // balance the clock
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("batch slot %d mismatch", i)
		}
	}
	grad := make([]float32, 8)
	grad[0] = 2
	if err := s.RMW(10, grad, 0.5); err != nil {
		t.Fatal(err)
	}
	one := make([]float32, 8)
	s.Peek(10, one)
	if one[0] != vals[0]-1 {
		t.Fatalf("RMW result %v, want %v", one[0], vals[0]-1)
	}
}

func TestLookaheadAndStats(t *testing.T) {
	m := openModel(t, mlkv.WithStalenessBound(4), mlkv.WithMemory(1<<20))
	s, _ := m.NewSession()
	defer s.Close()
	emb := make([]float32, 8)
	// Write past the memory budget so early keys hit disk.
	for k := uint64(1); k <= 20000; k++ {
		if err := s.Put(k, emb); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Lookahead([]uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Puts < 20000 {
		t.Fatalf("stats undercount: %+v", st)
	}
}

func TestDeleteAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := connectDir(t, dir)
	m, err := db.Open("ckpt", 4, mlkv.WithMemory(4<<20), mlkv.WithInitializer(mlkv.UniformInit(0)))
	if err != nil {
		t.Fatal(err)
	}
	s, _ := m.NewSession()
	s.Put(1, []float32{9, 9, 9, 9})
	s.Delete(2)
	s.Close()
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m.Close()
	db.Close()

	m2, err := connectDir(t, dir).Open("ckpt", 4, mlkv.WithMemory(4<<20), mlkv.WithInitializer(mlkv.UniformInit(0)))
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	s2, _ := m2.NewSession()
	defer s2.Close()
	got := make([]float32, 4)
	if found, _ := s2.Peek(1, got); !found || got[0] != 9 {
		t.Fatalf("checkpointed embedding lost: found=%v val=%v", found, got)
	}
}

func TestConcurrentSessions(t *testing.T) {
	m := openModel(t, mlkv.WithStalenessBound(8))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := m.NewSession()
			if err != nil {
				t.Error(err)
				return
			}
			defer s.Close()
			emb := make([]float32, 8)
			for i := 0; i < 500; i++ {
				k := uint64(i%50 + 1)
				if err := s.Get(k, emb); err != nil {
					t.Error(err)
					return
				}
				if err := s.Put(k, emb); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestOpenValidation(t *testing.T) {
	db := connectDir(t, t.TempDir())
	if _, err := db.Open("", 8); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := db.Open("x", 0); err == nil {
		t.Fatal("zero dim accepted")
	}
}

func TestShardedModel(t *testing.T) {
	m := openModel(t, mlkv.WithShards(4), mlkv.WithStalenessBound(mlkv.ASP))
	if m.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", m.Shards())
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := m.NewSession()
			if err != nil {
				errCh <- err
				return
			}
			defer s.Close()
			keys := make([]uint64, 64)
			vals := make([]float32, 64*8)
			got := make([]float32, 64*8)
			for i := range keys {
				keys[i] = uint64(i * 17)
				for j := 0; j < 8; j++ {
					vals[i*8+j] = float32(keys[i]) + float32(j)
				}
			}
			for iter := 0; iter < 10; iter++ {
				if err := s.PutBatch(keys, vals); err != nil {
					errCh <- err
					return
				}
				if err := s.GetBatch(keys, got); err != nil {
					errCh <- err
					return
				}
				for i := range got {
					if got[i] != vals[i] {
						errCh <- fmt.Errorf("worker %d iter %d: got[%d]=%v want %v",
							w, iter, i, got[i], vals[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Puts == 0 || st.Gets == 0 {
		t.Fatalf("merged stats empty: %+v", st)
	}
}
