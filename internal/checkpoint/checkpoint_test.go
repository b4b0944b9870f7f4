package checkpoint_test

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"ggpdes"
	"ggpdes/internal/checkpoint"
)

// TestWriteBytesConcurrentWriters has two writers persist the same
// checkpoint number into one directory, as fleet replicas sharing a
// keyed checkpoint directory do. Every write must succeed and leave a
// complete file behind.
func TestWriteBytesConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	const writers, writes = 2, 2000
	errs := make(chan error, writers*writes)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data := []byte(fmt.Sprintf(`{"writer":%d}`, w))
			for i := 0; i < writes; i++ {
				if _, err := checkpoint.WriteBytes(dir, 1, data); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	failed := 0
	for err := range errs {
		if failed == 0 {
			t.Errorf("write failed: %v", err)
		}
		failed++
	}
	if failed > 0 {
		t.Fatalf("%d of %d writes failed", failed, writers*writes)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != checkpoint.FileName(1) {
		t.Fatalf("directory holds %v, want only %s", entries, checkpoint.FileName(1))
	}
	got, err := os.ReadFile(dir + "/" + checkpoint.FileName(1))
	if err != nil {
		t.Fatal(err)
	}
	if s := string(got); s != `{"writer":0}` && s != `{"writer":1}` {
		t.Fatalf("checkpoint holds %q, want one writer's complete bytes", s)
	}
}

// realSnapshot returns the encoded bytes of the first checkpoint of a
// small checkpointed PHOLD run.
func realSnapshot(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	_, err := ggpdes.Run(ggpdes.Config{
		Model:                ggpdes.PHOLD{LPsPerThread: 2, Imbalance: 2},
		Threads:              2,
		System:               ggpdes.GGPDES,
		GVT:                  ggpdes.Barrier,
		EndTime:              10,
		Machine:              ggpdes.SmallMachine(),
		GVTFrequency:         10,
		ZeroCounterThreshold: 60,
		Checkpoint:           &ggpdes.CheckpointOptions{Every: 2, Dir: dir},
	})
	if err != nil {
		f.Fatal(err)
	}
	path, err := checkpoint.Latest(dir)
	if err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := checkpoint.Decode(data); err != nil {
		f.Fatalf("real snapshot does not decode: %v", err)
	}
	return data
}

// FuzzCheckpoint feeds Decode arbitrary bytes, seeded with a real
// snapshot, its truncations and single-bit flips. Decode must either
// succeed or fail with an error wrapping ErrCorrupt — never panic.
func FuzzCheckpoint(f *testing.F) {
	data := realSnapshot(f)
	f.Add(data)
	for _, n := range []int{0, 1, len(data) / 4, len(data) / 2, len(data) - 1} {
		f.Add(data[:n])
	}
	for _, at := range []int{0, 10, len(data) / 3, len(data) / 2, len(data) - 2} {
		for _, bit := range []byte{0x01, 0x40} {
			mut := append([]byte(nil), data...)
			mut[at] ^= bit
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := checkpoint.Decode(b)
		if err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if s.Engine == nil {
			t.Fatal("decoded snapshot without engine state")
		}
	})
}
