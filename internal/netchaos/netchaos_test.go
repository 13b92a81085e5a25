package netchaos

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// startEcho runs a TCP echo server and returns its address.
func startEcho(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				io.Copy(c, c)
			}()
		}
	}()
	t.Cleanup(func() { l.Close(); close(done); wg.Wait() })
	return l.Addr().String()
}

func startProxy(t *testing.T, cfg Config) *Proxy {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

func dialT(t *testing.T, addr string) net.Conn {
	t.Helper()
	c, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCleanForwarding(t *testing.T) {
	p := startProxy(t, Config{Target: startEcho(t)})
	c := dialT(t, p.Addr())
	msg := bytes.Repeat([]byte("hello chaos "), 1000)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("zero-config proxy altered the stream")
	}
}

func TestPartialWritesPreserveBytes(t *testing.T) {
	p := startProxy(t, Config{Target: startEcho(t), ChunkBytes: 3})
	c := dialT(t, p.Addr())
	msg := bytes.Repeat([]byte{0xAB, 0xCD, 0xEF, 0x01}, 500)
	go c.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("chunked forwarding altered the stream")
	}
}

func TestCorruptionFlipsBytes(t *testing.T) {
	p := startProxy(t, Config{Target: startEcho(t), Seed: 7, CorruptEvery: 64})
	c := dialT(t, p.Addr())
	msg := bytes.Repeat([]byte{0x55}, 4096)
	go c.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for _, b := range got {
		if b != 0x55 {
			if b != 0x55^0xFF {
				t.Fatalf("corrupted byte %#x is not a clean flip", b)
			}
			flipped++
		}
	}
	// ~8KiB forwarded (round trip), one flip per ~64B per direction.
	if flipped < 16 {
		t.Fatalf("only %d corrupted bytes across 8KiB at CorruptEvery=64", flipped)
	}
	if st := p.Stats(); st.Corrupted == 0 {
		t.Fatal("stats did not count corruption")
	}
}

func TestResetSeversDeterministically(t *testing.T) {
	countUntilDead := func() (n int, resets uint64) {
		p := startProxy(t, Config{Target: startEcho(t), Seed: 11, ResetEvery: 512})
		c := dialT(t, p.Addr())
		buf := make([]byte, 64)
		for {
			if _, err := c.Write(buf); err != nil {
				break
			}
			c.SetReadDeadline(time.Now().Add(time.Second))
			if _, err := io.ReadFull(c, buf); err != nil {
				break
			}
			n++
			if n > 1000 {
				break
			}
		}
		st := p.Stats()
		p.Close()
		return n, st.Resets
	}
	n1, r1 := countUntilDead()
	n2, _ := countUntilDead()
	if r1 == 0 {
		t.Fatal("no reset injected")
	}
	if n1 > 40 {
		t.Fatalf("survived %d round trips of 64B with ResetEvery=512", n1)
	}
	if n1 != n2 {
		t.Fatalf("same seed, different kill points: %d vs %d round trips", n1, n2)
	}
}

func TestStallDelaysDelivery(t *testing.T) {
	p := startProxy(t, Config{Target: startEcho(t), Seed: 3, StallEvery: 256, StallFor: 150 * time.Millisecond})
	c := dialT(t, p.Addr())
	msg := make([]byte, 2048)
	start := time.Now()
	go c.Write(msg)
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(c, got); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 150*time.Millisecond {
		t.Fatalf("2KiB round trip took %v; expected at least one 150ms stall", d)
	}
	if st := p.Stats(); st.Stalls == 0 {
		t.Fatal("stats did not count stalls")
	}
}

func TestLatencyAddsDelay(t *testing.T) {
	p := startProxy(t, Config{Target: startEcho(t), Latency: 50 * time.Millisecond})
	c := dialT(t, p.Addr())
	start := time.Now()
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	if _, err := io.ReadFull(c, one); err != nil {
		t.Fatal(err)
	}
	// 50ms per direction: the round trip carries at least 100ms.
	if d := time.Since(start); d < 100*time.Millisecond {
		t.Fatalf("round trip took %v, want >= 100ms of injected latency", d)
	}
}

func TestBlackoutKillsAndRefuses(t *testing.T) {
	p := startProxy(t, Config{Target: startEcho(t)})
	c := dialT(t, p.Addr())
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	if _, err := io.ReadFull(c, one); err != nil {
		t.Fatal(err)
	}

	p.SetBlackout(true)
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(c, one); err == nil {
		t.Fatal("live connection survived the blackout")
	}
	// New connections accept then die immediately: any I/O fails fast.
	// The reset can land before connect(2) returns, so a failed dial is
	// the blackout refusing too.
	if c2, err := net.DialTimeout("tcp", p.Addr(), 2*time.Second); err == nil {
		defer c2.Close()
		c2.SetReadDeadline(time.Now().Add(2 * time.Second))
		c2.Write([]byte("x"))
		if _, err := io.ReadFull(c2, one); err == nil {
			t.Fatal("blackout proxy served a new connection")
		}
	}

	p.SetBlackout(false)
	c3 := dialT(t, p.Addr())
	if _, err := c3.Write([]byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(c3, one); err != nil || one[0] != 'y' {
		t.Fatalf("proxy did not recover after blackout: %v %q", err, one)
	}
}

func TestCloseIsIdempotentAndUnblocksStalls(t *testing.T) {
	p := startProxy(t, Config{Target: startEcho(t), StallEvery: 1, StallFor: time.Minute})
	c := dialT(t, p.Addr())
	go c.Write(make([]byte, 1024))
	time.Sleep(20 * time.Millisecond) // let the pump enter its stall
	done := make(chan struct{})
	go func() { p.Close(); p.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a stalled pump")
	}
}
