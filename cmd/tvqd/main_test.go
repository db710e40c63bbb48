package main

import (
	"net/http"
	"testing"
)

// TestHTTPServerTimeouts pins the listener's resource bounds: header
// reads and idle connections time out, so slow or silent clients cannot
// pin connections, while writes have no deadline, so long-lived match
// streams are never cut off.
func TestHTTPServerTimeouts(t *testing.T) {
	h := http.NewServeMux()
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" || srv.Handler != h {
		t.Fatalf("server = %q with handler %v, want the given address and handler", srv.Addr, srv.Handler)
	}
	if srv.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", srv.ReadHeaderTimeout)
	}
	if srv.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", srv.IdleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want 0 (streams are long-lived)", srv.WriteTimeout)
	}
}
