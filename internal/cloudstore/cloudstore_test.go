package cloudstore

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func TestPutGet(t *testing.T) {
	s := New()
	v1, err := s.Put("a", []byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	val, ver, err := s.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if string(val) != "x" || ver != v1 {
		t.Fatalf("got %q v%d; want x v%d", val, ver, v1)
	}
}

func TestGetMissing(t *testing.T) {
	s := New()
	if _, _, err := s.Get("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v; want ErrNotFound", err)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	s := New()
	_, _ = s.Put("a", []byte("abc"))
	val, _, _ := s.Get("a")
	val[0] = 'Z'
	val2, _, _ := s.Get("a")
	if string(val2) != "abc" {
		t.Fatal("Get must return a copy")
	}
}

func TestVersionsMonotonic(t *testing.T) {
	s := New()
	v1, _ := s.Put("a", nil)
	v2, _ := s.Put("a", nil)
	v3, _ := s.Put("b", nil)
	if !(v1 < v2 && v2 < v3) {
		t.Fatalf("versions %d %d %d not monotonic", v1, v2, v3)
	}
}

func TestCASCreate(t *testing.T) {
	s := New()
	if _, err := s.CAS("a", 0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CAS("a", 0, []byte("y")); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("err = %v; want ErrVersionMismatch", err)
	}
}

func TestCASUpdate(t *testing.T) {
	s := New()
	v1, _ := s.Put("a", []byte("x"))
	v2, err := s.CAS("a", v1, []byte("y"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CAS("a", v1, []byte("z")); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("stale CAS err = %v; want ErrVersionMismatch", err)
	}
	val, ver, _ := s.Get("a")
	if string(val) != "y" || ver != v2 {
		t.Fatalf("got %q v%d", val, ver)
	}
}

func TestCASOnlyOneWinner(t *testing.T) {
	s := New()
	v0, _ := s.Put("a", []byte("0"))
	var wins, losses int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.CAS("a", v0, []byte("w"))
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				wins++
			} else {
				losses++
			}
		}()
	}
	wg.Wait()
	if wins != 1 || losses != 15 {
		t.Fatalf("wins=%d losses=%d; want 1/15", wins, losses)
	}
}

func TestDelete(t *testing.T) {
	s := New()
	_, _ = s.Put("a", nil)
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v; want ErrNotFound", err)
	}
}

func TestList(t *testing.T) {
	s := New()
	_, _ = s.Put("map/1", nil)
	_, _ = s.Put("map/2", nil)
	_, _ = s.Put("wal/1", nil)
	keys, err := s.List("map/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "map/1" || keys[1] != "map/2" {
		t.Fatalf("keys = %v", keys)
	}
	all, _ := s.List("")
	if len(all) != 3 {
		t.Fatalf("all = %v", all)
	}
}

func TestFailRecover(t *testing.T) {
	s := New()
	_, _ = s.Put("a", nil)
	s.Fail()
	if _, _, err := s.Get("a"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v; want ErrUnavailable", err)
	}
	if _, err := s.Put("b", nil); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v; want ErrUnavailable", err)
	}
	s.Recover()
	if _, _, err := s.Get("a"); err != nil {
		t.Fatalf("after recover: %v", err)
	}
}

func TestLatencyCharged(t *testing.T) {
	s := New(WithLatency(10 * time.Millisecond))
	start := time.Now()
	_, _ = s.Put("a", nil)
	if el := time.Since(start); el < 9*time.Millisecond {
		t.Fatalf("Put took %v; want ≥10ms", el)
	}
}

func TestStats(t *testing.T) {
	s := New()
	_, _ = s.Put("a", nil)
	_, _, _ = s.Get("a")
	_, _, _ = s.Get("a")
	r, w := s.Stats()
	if r != 2 || w != 1 {
		t.Fatalf("reads=%d writes=%d; want 2/1", r, w)
	}
}

func TestPutBatchOneRoundTrip(t *testing.T) {
	s := New(WithLatency(10 * time.Millisecond))
	entries := map[string][]byte{
		"map/1": []byte("10"),
		"map/2": []byte("20"),
		"map/3": []byte("30"),
	}
	last, err := s.PutBatch(entries)
	if err != nil {
		t.Fatal(err)
	}
	_, w := s.Stats()
	if w != 1 {
		t.Fatalf("writes = %d; want 1 (one batched RPC)", w)
	}
	var maxV uint64
	for k, want := range entries {
		got, v, err := s.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%q = %q; want %q", k, got, want)
		}
		if v > maxV {
			maxV = v
		}
	}
	if last != maxV {
		t.Fatalf("PutBatch version = %d; want highest assigned %d", last, maxV)
	}
	if _, err := s.PutBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	s.Fail()
	if _, err := s.PutBatch(entries); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v; want ErrUnavailable while failed", err)
	}
}
