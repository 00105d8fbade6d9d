package netif

import "testing"

func TestRingConstructorsSize(t *testing.T) {
	if NewTxRing().Size() != RingSize || NewRxRing().Size() != RingSize {
		t.Fatal("ring constructors produce wrong sizes")
	}
}

func TestChannelQueues(t *testing.T) {
	for _, n := range []int{1, 2, 4, MaxQueues} {
		ch := NewChannel(n)
		if ch.NumQueues() != n {
			t.Fatalf("NumQueues = %d, want %d", ch.NumQueues(), n)
		}
		for i := 0; i < n; i++ {
			if ch.Tx.Queue(i).Size() != RingSize || ch.Rx.Queue(i).Size() != RingSize {
				t.Fatalf("queue %d has wrong ring sizes", i)
			}
		}
	}
}
