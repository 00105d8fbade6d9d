package netif

import (
	"testing"

	"kite/internal/pvback"
)

func TestRegistryPublishClaimDrop(t *testing.T) {
	r := pvback.NewRegistry()
	ch := NewChannel(1)
	r.Publish(3, 0, ch)
	got, ok := r.Claim(3, 0)
	if !ok || got != ch {
		t.Fatalf("claim = %v, %v", got, ok)
	}
	if _, ok := r.Claim(3, 1); ok {
		t.Fatal("claim of unpublished device succeeded")
	}
	if _, ok := r.Claim(4, 0); ok {
		t.Fatal("claim of wrong domain succeeded")
	}
	r.Drop(3, 0)
	if _, ok := r.Claim(3, 0); ok {
		t.Fatal("claim after drop succeeded")
	}
}

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

func TestRegistryDistinctKeys(t *testing.T) {
	r := pvback.NewRegistry()
	a := NewChannel(1)
	b := NewChannel(2)
	r.Publish(1, 0, a)
	r.Publish(1, 1, b)
	r.Publish(2, 0, b)
	if got, _ := r.Claim(1, 0); got != a {
		t.Fatal("key collision between devices")
	}
	if got, _ := r.Claim(2, 0); got != b {
		t.Fatal("key collision between domains")
	}
}
