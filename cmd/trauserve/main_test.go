package main

import (
	"bytes"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// syncBuffer is a locked bytes.Buffer: run writes from its own
// goroutine while the test polls.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestRunUsageError(t *testing.T) {
	var out, errOut syncBuffer
	if code := run([]string{"stray-arg"}, &out, &errOut, nil); code != 2 {
		t.Fatalf("run with stray argument = %d, want 2", code)
	}
	if code := run([]string{"-no-such-flag"}, &out, &errOut, nil); code != 2 {
		t.Fatalf("run with unknown flag = %d, want 2", code)
	}
	for _, flag := range []string{"-parallel=2", "-incremental=false"} {
		if code := run([]string{flag}, &out, &errOut, nil); code != 2 {
			t.Fatalf("run with removed flag %s = %d, want 2", flag, code)
		}
	}
}

func TestRunBadListenAddr(t *testing.T) {
	var out, errOut syncBuffer
	if code := run([]string{"-addr", "256.256.256.256:0"}, &out, &errOut, nil); code != 1 {
		t.Fatalf("run with bad address = %d, want 1", code)
	}
}

// TestRunServeAndGracefulShutdown boots the command on an ephemeral
// port, fires a smoke solve and a cache-hit repeat, then delivers
// SIGTERM and requires a clean drain with exit code 0.
func TestRunServeAndGracefulShutdown(t *testing.T) {
	var out, errOut syncBuffer
	sigs := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-workers", "2"}, &out, &errOut, sigs)
	}()

	var url string
	deadline := time.Now().Add(10 * time.Second)
	for url == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; stdout %q stderr %q", out.String(), errOut.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "trauserve: listening on "); ok {
				url = strings.TrimSpace(rest)
			}
		}
		if url == "" {
			time.Sleep(10 * time.Millisecond)
		}
	}

	body := `{"smtlib": "(declare-fun x () String)(assert (= (str.len x) 3))(check-sat)"}`
	for i, want := range []string{`"cached": false`, `"cached": true`} {
		resp, err := http.Post(url+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != 200 || !strings.Contains(buf.String(), `"status": "sat"`) {
			t.Fatalf("solve %d: status %d body %s", i, resp.StatusCode, buf.String())
		}
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("solve %d: want %s in body %s", i, want, buf.String())
		}
	}

	statsResp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	_ = statsResp.Body.Close()
	if statsResp.StatusCode != 200 {
		t.Fatalf("GET /stats status = %d", statsResp.StatusCode)
	}

	sigs <- syscall.SIGTERM
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code = %d, want 0; stderr %q", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
	if !strings.Contains(out.String(), "trauserve: drained") {
		t.Fatalf("drain message missing from stdout %q", out.String())
	}
}

// waitForURL polls run's stdout until the listen announcement appears.
func waitForURL(t *testing.T, out, errOut *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("server never announced its address; stdout %q stderr %q", out.String(), errOut.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, "trauserve: listening on "); ok {
				return strings.TrimSpace(rest)
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunFaultSeedContainsWorkerPanic boots with -faultseed 3072 (which
// injects a panic at the very first schedule visit — the first job's
// worker boundary): the first request gets a structured 500 with a
// fault id, the next request on the same worker succeeds, and the
// process still drains cleanly.
func TestRunFaultSeedContainsWorkerPanic(t *testing.T) {
	var out, errOut syncBuffer
	sigs := make(chan os.Signal, 1)
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-workers", "1", "-faultseed", "3072"}, &out, &errOut, sigs)
	}()
	url := waitForURL(t, &out, &errOut)
	if !strings.Contains(out.String(), "fault injection armed") {
		t.Fatalf("arming message missing from stdout %q", out.String())
	}

	body := `{"smtlib": "(declare-fun x () String)(assert (= (str.len x) 3))(check-sat)"}`
	post := func() (int, string) {
		resp, err := http.Post(url+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST /solve: %v", err)
		}
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		_ = resp.Body.Close()
		return resp.StatusCode, buf.String()
	}

	code, first := post()
	if code != 500 || !strings.Contains(first, `"fault_id"`) || !strings.Contains(first, `"reason": "panic:`) {
		t.Fatalf("injected-panic solve: status %d body %s, want 500 with fault_id", code, first)
	}
	code, second := post()
	if code != 200 || !strings.Contains(second, `"status": "sat"`) {
		t.Fatalf("solve after contained panic: status %d body %s, want sat 200", code, second)
	}

	sigs <- syscall.SIGTERM
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit code = %d, want 0; stderr %q", code, errOut.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not drain after SIGTERM")
	}
}

// TestHTTPServerDropsStalledClients checks the connection hardening:
// a client that opens a connection and never finishes its request
// headers is cut off by ReadHeaderTimeout instead of pinning a
// goroutine forever.
func TestHTTPServerDropsStalledClients(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	hs := newHTTPServer(http.NotFoundHandler(), 100*time.Millisecond, 200*time.Millisecond)
	go func() { _ = hs.Serve(ln) }()
	defer func() { _ = hs.Close() }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	// Half a request: headers never terminated.
	if _, err := conn.Write([]byte("POST /solve HTTP/1.1\r\nHost: stall\r\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	start := time.Now()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 512)
	for {
		if _, err := conn.Read(buf); err != nil {
			break // server closed the connection (possibly after a 408)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled connection lived %v, want prompt close from ReadHeaderTimeout", elapsed)
	}
}
