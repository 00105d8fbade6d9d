package workload

import "testing"

func TestConsumeHTTPResponse(t *testing.T) {
	resp := []byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
	n, body, ok := consumeHTTPResponse(resp)
	if !ok || n != len(resp) || body != 5 {
		t.Fatalf("n=%d body=%d ok=%v", n, body, ok)
	}
	// Partial body: incomplete.
	if _, _, ok := consumeHTTPResponse(resp[:len(resp)-1]); ok {
		t.Fatal("partial body parsed")
	}
	// Headers only: incomplete.
	if _, _, ok := consumeHTTPResponse([]byte("HTTP/1.1 200 OK\r\nContent-Len")); ok {
		t.Fatal("partial header parsed")
	}
	// No Content-Length: header-only response.
	hdr := []byte("HTTP/1.1 304 Not Modified\r\nServer: x\r\n\r\n")
	n, body, ok = consumeHTTPResponse(hdr)
	if !ok || n != len(hdr) || body != 0 {
		t.Fatalf("no-CL response: n=%d body=%d ok=%v", n, body, ok)
	}
	// Two pipelined responses: first consumed exactly.
	two := append(append([]byte{}, resp...), resp...)
	n, _, ok = consumeHTTPResponse(two)
	if !ok || n != len(resp) {
		t.Fatalf("pipelined first = %d, want %d", n, len(resp))
	}
}

func TestConsumeKVReply(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"OK\r\n", 4},
		{"NIL\r\n", 5},
		{"ERR bad\r\n", 9},
		{"VALUE 3\r\nabc\r\n", 14},
		{"VALUE 3\r\nab", 0}, // incomplete body
		{"VALUE", 0},         // incomplete line
		{"", 0},
	}
	for _, c := range cases {
		if got := consumeKVReply([]byte(c.in)); got != c.want {
			t.Errorf("consumeKVReply(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestConsumeSQLReply(t *testing.T) {
	full := []byte("D 4\nabcd")
	if got := consumeSQLReply(full); got != len(full) {
		t.Fatalf("full reply = %d, want %d", got, len(full))
	}
	if got := consumeSQLReply([]byte("D 4\nab")); got != 0 {
		t.Fatalf("partial data = %d, want 0", got)
	}
	if got := consumeSQLReply([]byte("E bad query\n")); got != 12 {
		t.Fatalf("error reply = %d", got)
	}
	if got := consumeSQLReply([]byte("D 4")); got != 0 {
		t.Fatalf("no newline = %d, want 0", got)
	}
}
