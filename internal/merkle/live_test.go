package merkle

import (
	"bytes"
	"errors"
	"sync"
	"testing"
)

// TestVOEndsTheRecorder: a VO describes the batch recorded before it
// was taken, whatever goes through the recording afterwards. Later
// operations are refused, and the VO's bytes — written after them — are
// the ones a recording of the batch alone writes. A VO that read the
// recorder when it wrote would take in the later reads.
func TestVOEndsTheRecorder(t *testing.T) {
	tr := buildTree(t, 3, 500)
	batch := func(r *Recording) {
		t.Helper()
		if err := r.Put(key(10), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	rec := tr.Record()
	batch(rec)
	vo := rec.VO()
	if err := rec.Put(key(400), []byte("later")); !errors.Is(err, ErrVOTaken) {
		t.Errorf("Put after VO: %v, want ErrVOTaken", err)
	}
	if _, _, err := rec.Get(key(300)); !errors.Is(err, ErrVOTaken) {
		t.Errorf("Get after VO: %v, want ErrVOTaken", err)
	}
	if _, err := rec.Delete(key(200)); !errors.Is(err, ErrVOTaken) {
		t.Errorf("Delete after VO: %v, want ErrVOTaken", err)
	}
	if err := rec.Range(key(100), key(120), func(_, _ []byte) bool { return true }); !errors.Is(err, ErrVOTaken) {
		t.Errorf("Range after VO: %v, want ErrVOTaken", err)
	}
	ref := tr.Record()
	batch(ref)
	if got, want := mustMarshal(t, vo), mustMarshal(t, ref.VO()); !bytes.Equal(got, want) {
		t.Fatalf("the VO changed after it was taken:\n got %x\nwant %x", got, want)
	}
	if got, want := rec.Tree().RootDigest(), tr.Put(key(10), []byte("new")).RootDigest(); got != want {
		t.Fatalf("post-state %s after VO, want %s", got.Short(), want.Short())
	}
}

// TestLiveVOConcurrentReaders: two goroutines materialize one live VO
// while a third writes it into a frame — run with -race. All of them
// get the VO's bytes, Len of them.
func TestLiveVOConcurrentReaders(t *testing.T) {
	tr := buildTree(t, 4, 2000)
	for round := 0; round < 50; round++ {
		rec := tr.Record()
		if err := rec.Put(key(round*37), []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, _, err := rec.Get(key(round * 53)); err != nil {
			t.Fatal(err)
		}
		vo := rec.VO()
		start := make(chan struct{})
		out := make([][]byte, 3)
		var wg sync.WaitGroup
		for g := range out {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				var err error
				switch g {
				case 0:
					out[g], err = vo.MarshalBinary()
				case 1:
					var pt *Tree
					if pt, err = vo.Tree(); err == nil && pt.RootDigest() != tr.RootDigest() {
						t.Errorf("round %d: materialized pre-state has the wrong root", round)
					}
					out[g], _ = vo.MarshalBinary()
				case 2:
					out[g], err = vo.AppendBinary(make([]byte, 0, vo.Len()))
				}
				if err != nil {
					t.Error(err)
				}
			}(g)
		}
		close(start)
		wg.Wait()
		for g, b := range out {
			if len(b) != vo.Len() || !bytes.Equal(b, out[0]) {
				t.Fatalf("round %d, reader %d: %d bytes, want the %d every reader gets", round, g, len(b), vo.Len())
			}
		}
	}
}
