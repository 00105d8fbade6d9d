package netif

import (
	"testing"
	"unsafe"
)

func TestRingConstructorsSize(t *testing.T) {
	if NewTxRings(1).Queue(0).Size() != RingSize || NewRxRings(1).Queue(0).Size() != RingSize {
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

// TestEntrySizes pins the ring entries at netif.h's widths: each ring's
// 256 requests and 256 responses fill one 4 KiB page, as in Xen, and every
// fleet tenant holds a Tx and an Rx ring.
func TestEntrySizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"TxRequest", unsafe.Sizeof(TxRequest{}), 12},
		{"TxResponse", unsafe.Sizeof(TxResponse{}), 4},
		{"RxRequest", unsafe.Sizeof(RxRequest{}), 8},
		{"RxResponse", unsafe.Sizeof(RxResponse{}), 8},
	} {
		if c.got != c.want {
			t.Errorf("sizeof(%s) = %d, want %d", c.name, c.got, c.want)
		}
	}
	tx := RingSize * (unsafe.Sizeof(TxRequest{}) + unsafe.Sizeof(TxResponse{}))
	rx := RingSize * (unsafe.Sizeof(RxRequest{}) + unsafe.Sizeof(RxResponse{}))
	if tx != 4096 || rx != 4096 {
		t.Errorf("Tx ring entries take %d B, Rx %d B; want one 4 KiB page each", tx, rx)
	}
}
