package fault

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// TestGrayFailureSlowButAlive drives data through a gray-failed
// connection — seeded latency spikes plus a bandwidth throttle — and
// asserts the defining property: every byte arrives intact and in
// order, the connection never dies, but throughput is capped at the
// configured rate.
func TestGrayFailureSlowButAlive(t *testing.T) {
	inj := NewInjector(Config{
		Seed:        7,
		SpikeProb:   0.5,
		SpikeMin:    time.Millisecond,
		SpikeMax:    3 * time.Millisecond,
		BytesPerSec: 256 << 10,
	})
	a, b := net.Pipe()
	gray := WrapConn(a, inj)

	const chunks, chunkLen = 16, 4 << 10
	payload := bytes.Repeat([]byte{0xab}, chunkLen)
	got := make([]byte, 0, chunks*chunkLen)
	done := make(chan error, 1)
	go func() {
		buf := make([]byte, chunkLen)
		for len(got) < chunks*chunkLen {
			n, err := b.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	start := time.Now()
	for i := 0; i < chunks; i++ {
		if _, err := gray.Write(payload); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("read: %v", err)
	}
	elapsed := time.Since(start)

	if len(got) != chunks*chunkLen {
		t.Fatalf("got %d bytes, want %d", len(got), chunks*chunkLen)
	}
	for i, c := range got {
		if c != 0xab {
			t.Fatalf("byte %d corrupted: %#x", i, c)
		}
	}
	// 64KiB at 256KiB/s is a 250ms pacing floor; allow scheduler slack
	// below it but not a free pass.
	if elapsed < 200*time.Millisecond {
		t.Fatalf("transfer finished in %v, want >= ~250ms under throttle", elapsed)
	}
	if inj.Counts()[Spike] == 0 {
		t.Fatalf("no latency spikes injected: %v", inj.Counts())
	}
}

// TestGrayDecisionsDeterministic pins the gray-failure decision stream
// to the seed: two injectors with the same (Seed, Config) must agree
// on every spike, including its drawn duration.
func TestGrayDecisionsDeterministic(t *testing.T) {
	cfg := Config{Seed: 42, SpikeProb: 0.3, SpikeMin: time.Millisecond, SpikeMax: 9 * time.Millisecond}
	x, y := NewInjector(cfg), NewInjector(cfg)
	spikes := 0
	for i := 0; i < 500; i++ {
		dx, dy := x.Next(), y.Next()
		if dx != dy {
			t.Fatalf("decision %d diverged: %+v vs %+v", i, dx, dy)
		}
		if dx.Kind == Spike {
			spikes++
			if dx.Delay < cfg.SpikeMin || dx.Delay > cfg.SpikeMax {
				t.Fatalf("spike delay %v outside [%v, %v]", dx.Delay, cfg.SpikeMin, cfg.SpikeMax)
			}
		}
	}
	if spikes == 0 {
		t.Fatal("seeded stream produced no spikes")
	}
}

// TestGrayScriptedSpike fires a spike at an exact I/O index, the way
// experiment scripts pin pathological schedules.
func TestGrayScriptedSpike(t *testing.T) {
	inj := NewInjector(Config{
		SpikeMin: 2 * time.Millisecond,
		Script:   []Event{{At: 3, Kind: Spike}},
	})
	for i := 1; i <= 5; i++ {
		d := inj.Next()
		if (i == 3) != (d.Kind == Spike) {
			t.Fatalf("op %d: decision %+v", i, d)
		}
		if i == 3 && d.Delay != 2*time.Millisecond {
			t.Fatalf("scripted spike delay %v, want 2ms", d.Delay)
		}
	}
}

var _ io.ReadWriter = (*Conn)(nil)

// Counts returns how many faults of each kind have been injected.
func (i *Injector) Counts() map[Kind]uint64 {
	i.mu.Lock()
	defer i.mu.Unlock()
	out := make(map[Kind]uint64, len(i.counts))
	for k, v := range i.counts {
		out[k] = v
	}
	return out
}
