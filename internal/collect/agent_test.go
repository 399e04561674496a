package collect

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"traceback/internal/archive"
	"traceback/internal/snap"
)

// loopback is a real TCP listener on a kernel-assigned port — unlike
// httptest it exposes the address, so a test can kill a daemon and
// re-listen on the same port (the restart scenario).
type loopback struct {
	Listener net.Listener
}

func newLoopback() (*loopback, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &loopback{Listener: l}, nil
}

func (lb *loopback) Addr() string { return lb.Listener.Addr().String() }
func (lb *loopback) URL() string  { return "http://" + lb.Addr() }

// fastAgent builds an agent whose retries cost (almost) no wall
// clock: instant sleep, tiny backoff, pinned jitter seed.
func fastAgent(spool, base string) *Agent {
	return NewAgent(spool, base, AgentOptions{
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Seed:        1,
		Sleep:       func(ctx context.Context, d time.Duration) error { return ctx.Err() },
	})
}

func mustSpool(t *testing.T, dir string, n int) string {
	t.Helper()
	p, err := Spool(dir, mkSnap("h1", n))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func spoolLen(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0
		}
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() {
			n++
		}
	}
	return n
}

func TestSpoolContentAddressed(t *testing.T) {
	dir := t.TempDir()
	p1 := mustSpool(t, dir, 1)
	p2 := mustSpool(t, dir, 1)
	if p1 != p2 {
		t.Errorf("re-spooling the same snap produced %s and %s", p1, p2)
	}
	if n := spoolLen(t, dir); n != 1 {
		t.Errorf("spool holds %d file(s), want 1", n)
	}
	if p3 := mustSpool(t, dir, 2); p3 == p1 {
		t.Error("distinct snaps spooled to the same path")
	}
}

func TestAgentDrainAndDedupSkip(t *testing.T) {
	_, ts, arch := newTestDaemon(t, ServerOptions{})

	spool1 := t.TempDir()
	mustSpool(t, spool1, 1)
	mustSpool(t, spool1, 2)
	a1 := fastAgent(spool1, ts.URL)
	if err := a1.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if n := spoolLen(t, spool1); n != 0 {
		t.Fatalf("spool still holds %d file(s) after drain", n)
	}
	if arch.NumBlobs() != 2 || journalLen(t, arch) != 2 {
		t.Fatalf("archive: %d blob(s), %d journal record(s), want 2/2",
			arch.NumBlobs(), journalLen(t, arch))
	}
	if got := a1.met.uploads.Load(); got != 2 {
		t.Errorf("coll_agent_uploads_total = %d, want 2", got)
	}

	// A second machine crashing the same way skips the upload entirely
	// after the precheck — and the journal records nothing new.
	spool2 := t.TempDir()
	mustSpool(t, spool2, 1)
	a2 := fastAgent(spool2, ts.URL)
	if err := a2.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := a2.met.dedupSkips.Load(); got != 1 {
		t.Errorf("coll_agent_dedup_skips_total = %d, want 1", got)
	}
	if got := a2.met.uploads.Load(); got != 0 {
		t.Errorf("second agent uploaded %d snap(s), want 0", got)
	}
	if journalLen(t, arch) != 2 {
		t.Errorf("journal grew on a dedup skip")
	}
}

// TestAgentRetriesThroughErrorStorm: the daemon answers the first
// several requests with 500s and connection-level failures; the agent
// keeps the snap spooled and lands it when the storm passes.
func TestAgentRetriesThroughErrorStorm(t *testing.T) {
	srv, _, arch := newTestDaemon(t, ServerOptions{})
	var mu sync.Mutex
	failures := 6
	storm := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n := failures
		if failures > 0 {
			failures--
		}
		mu.Unlock()
		switch {
		case n > 3: // connection reset: no HTTP response at all
			c, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				c.Close()
			}
		case n > 0:
			http.Error(w, "injected daemon error", http.StatusInternalServerError)
		default:
			srv.Handler().ServeHTTP(w, r)
		}
	}))
	defer storm.Close()

	spool := t.TempDir()
	mustSpool(t, spool, 1)
	ag := fastAgent(spool, storm.URL)
	if err := ag.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if n := spoolLen(t, spool); n != 0 {
		t.Fatalf("spool still holds %d file(s)", n)
	}
	if arch.NumBlobs() != 1 || journalLen(t, arch) != 1 {
		t.Fatalf("archive: %d blob(s), %d record(s), want exactly 1/1",
			arch.NumBlobs(), journalLen(t, arch))
	}
	if got := ag.met.retries.Load(); got == 0 {
		t.Error("storm produced no retries")
	}
}

// TestAgentHonors429RetryAfter: backpressure responses carry a
// Retry-After hint and the agent waits at least that long.
func TestAgentHonors429RetryAfter(t *testing.T) {
	srv, _, arch := newTestDaemon(t, ServerOptions{})
	var mu sync.Mutex
	rejections := 2
	gate := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		reject := r.Method == http.MethodPost && rejections > 0
		if reject {
			rejections--
		}
		mu.Unlock()
		if reject {
			w.Header().Set("Retry-After", "7")
			http.Error(w, "ingest at capacity", http.StatusTooManyRequests)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer gate.Close()

	var slept []time.Duration
	ag := NewAgent(t.TempDir(), gate.URL, AgentOptions{
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Seed:        1,
		Sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return ctx.Err()
		},
	})
	mustSpool(t, ag.spool, 1)
	if err := ag.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := ag.met.backpressure.Load(); got != 2 {
		t.Errorf("coll_agent_backpressure_total = %d, want 2", got)
	}
	hinted := false
	for _, d := range slept {
		if d >= 7*time.Second {
			hinted = true
		}
	}
	if !hinted {
		t.Errorf("no sleep honored the 7s Retry-After hint; slept %v", slept)
	}
	if journalLen(t, arch) != 1 {
		t.Errorf("journal holds %d record(s), want 1", journalLen(t, arch))
	}
}

// TestAgentTruncatedResponseRetriesIdempotently: the daemon commits
// the snap but its response is cut off mid-body. The agent cannot
// prove the handoff, so it retries — and the precheck turns the retry
// into a skip. Nothing is lost, nothing is double-counted.
func TestAgentTruncatedResponseRetriesIdempotently(t *testing.T) {
	srv, _, arch := newTestDaemon(t, ServerOptions{})
	var mu sync.Mutex
	truncateNext := true
	trunc := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		doTrunc := r.Method == http.MethodPost && truncateNext
		if doTrunc {
			truncateNext = false
		}
		mu.Unlock()
		if !doTrunc {
			srv.Handler().ServeHTTP(w, r)
			return
		}
		// Let the real daemon commit the upload, then cut the reply off
		// mid-JSON — the worst-timed daemon death the agent can see.
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, r)
		c, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		fmt.Fprintf(c, "HTTP/1.1 %d OK\r\nContent-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"v\":", rec.Code)
		c.Close()
	}))
	defer trunc.Close()

	spool := t.TempDir()
	mustSpool(t, spool, 1)
	ag := fastAgent(spool, trunc.URL)
	if err := ag.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if n := spoolLen(t, spool); n != 0 {
		t.Fatalf("spool still holds %d file(s)", n)
	}
	if journalLen(t, arch) != 1 {
		t.Fatalf("journal holds %d record(s), want exactly 1", journalLen(t, arch))
	}
	if ag.met.retries.Load() == 0 {
		t.Error("truncated response did not register as a retry")
	}
	if ag.met.dedupSkips.Load() != 1 {
		t.Errorf("coll_agent_dedup_skips_total = %d, want 1 (retry resolved by precheck)", ag.met.dedupSkips.Load())
	}
}

// TestAgentSurvivesDaemonKillRestart kills the daemon mid-upload
// (hard close, no drain), reopens the store as a restarted daemon on
// the same address, and checks the agent loses nothing and the index
// comes out identical to a direct local ingest.
func TestAgentSurvivesDaemonKillRestart(t *testing.T) {
	storeDir := filepath.Join(t.TempDir(), "wh")
	arch1, err := archive.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	srv1 := NewServer(arch1, ServerOptions{})
	entered := make(chan struct{}, 1)
	hold := make(chan struct{})
	srv1.ingestGate = func() {
		select {
		case entered <- struct{}{}:
			<-hold
		default: // only the first upload is pinned
		}
	}
	lb, err := newLoopback()
	if err != nil {
		t.Fatal(err)
	}
	serve1 := make(chan error, 1)
	go func() { serve1 <- srv1.Serve(lb.Listener) }()

	spool := t.TempDir()
	mustSpool(t, spool, 1)
	mustSpool(t, spool, 2)
	ag := fastAgent(spool, lb.URL())
	drained := make(chan error, 1)
	go func() { drained <- ag.Drain(t.Context()) }()

	// First upload is in flight inside the daemon: kill it. No drain,
	// no goodbye — connections die under the handler.
	<-entered
	if err := srv1.hs.Close(); err != nil {
		t.Fatalf("hard close: %v", err)
	}
	close(hold)
	<-serve1
	// Wait for the interrupted handler to release its ingest slot
	// before the store closes under it.
	for len(srv1.sem) != 0 {
		time.Sleep(time.Millisecond)
	}
	if err := arch1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: same store directory (crash recovery path), same
	// address. The agent has been retrying the whole time.
	arch2, err := archive.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	defer arch2.Close()
	srv2 := NewServer(arch2, ServerOptions{})
	var l2 net.Listener
	for i := 0; ; i++ {
		l2, err = net.Listen("tcp", lb.Addr())
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("re-listen on %s: %v", lb.Addr(), err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	serve2 := make(chan error, 1)
	go func() { serve2 <- srv2.Serve(l2) }()
	t.Cleanup(func() { srv2.Shutdown(context.Background()); <-serve2 })

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if n := spoolLen(t, spool); n != 0 {
		t.Fatalf("spool still holds %d file(s)", n)
	}
	if arch2.NumBlobs() != 2 || journalLen(t, arch2) != 2 {
		t.Fatalf("restarted store: %d blob(s), %d record(s), want 2/2",
			arch2.NumBlobs(), journalLen(t, arch2))
	}

	// Byte-for-byte parity with a direct local ingest of the same two
	// snaps — the kill/restart left no trace in the index.
	direct, err := archive.Open(filepath.Join(t.TempDir(), "direct"))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	for _, n := range []int{1, 2} {
		s := mkSnap("h1", n)
		if _, err := direct.Ingest(s, archive.SignSnap(s, nil)); err != nil {
			t.Fatal(err)
		}
	}
	want, err := direct.IndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := arch2.IndexBytes()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("index after kill/restart differs from direct ingest:\n%s\nvs\n%s", got, want)
	}
}

func TestAgentQuarantinesUnreadableSnap(t *testing.T) {
	_, ts, arch := newTestDaemon(t, ServerOptions{})
	spool := t.TempDir()
	bad := filepath.Join(spool, "deadbeef.snap.json.gz")
	if err := os.WriteFile(bad, []byte("not gzip, not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	mustSpool(t, spool, 1)

	ag := fastAgent(spool, ts.URL)
	if err := ag.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := ag.met.quarantined.Load(); got != 1 {
		t.Errorf("coll_agent_quarantined_total = %d, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(spool, quarantineDir, "deadbeef.snap.json.gz")); err != nil {
		t.Errorf("quarantined file not preserved: %v", err)
	}
	if n := spoolLen(t, spool); n != 0 {
		t.Errorf("spool still holds %d file(s)", n)
	}
	if journalLen(t, arch) != 1 {
		t.Errorf("good snap did not land: journal holds %d record(s)", journalLen(t, arch))
	}
}

// TestAgentQuarantinesDefinitiveRejection: a 4xx verdict from the
// daemon means retrying identical bytes cannot succeed; the agent
// parks the snap instead of spinning on it, and sidecars the daemon's
// verdict (status + response snippet) next to the evidence.
func TestAgentQuarantinesDefinitiveRejection(t *testing.T) {
	reject := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			http.Error(w, "signature policy: snap class forbidden", http.StatusForbidden)
			return
		}
		w.WriteHeader(http.StatusNotFound) // precheck: not stored
	}))
	defer reject.Close()

	spool := t.TempDir()
	mustSpool(t, spool, 1)
	ag := fastAgent(spool, reject.URL)
	if err := ag.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := ag.met.quarantined.Load(); got != 1 {
		t.Errorf("coll_agent_quarantined_total = %d, want 1", got)
	}
	if n := spoolLen(t, spool); n != 0 {
		t.Errorf("spool still holds %d file(s)", n)
	}

	// Exactly one quarantined snap plus its .reason sidecar, holding
	// the HTTP status and the daemon's explanation.
	qdir := filepath.Join(spool, quarantineDir)
	entries, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	var reasonFile, snapFile string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".reason") {
			reasonFile = e.Name()
		} else {
			snapFile = e.Name()
		}
	}
	if snapFile == "" || reasonFile != snapFile+".reason" {
		t.Fatalf("quarantine holds %v, want <snap> and <snap>.reason", entries)
	}
	reason, err := os.ReadFile(filepath.Join(qdir, reasonFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"403", "signature policy: snap class forbidden"} {
		if !strings.Contains(string(reason), want) {
			t.Errorf("reason %q missing %q", reason, want)
		}
	}
}

// TestAgentDrainCancelKeepsSpool: cancellation mid-storm leaves the
// snap spooled — a new agent (process restart) resumes it.
func TestAgentDrainCancelKeepsSpool(t *testing.T) {
	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer down.Close()

	spool := t.TempDir()
	mustSpool(t, spool, 1)
	ctx, cancel := context.WithCancel(t.Context())
	ag := NewAgent(spool, down.URL, AgentOptions{
		BackoffBase: time.Millisecond,
		BackoffMax:  4 * time.Millisecond,
		Seed:        1,
		Sleep: func(ctx context.Context, d time.Duration) error {
			cancel() // give up during the first retry wait
			return ctx.Err()
		},
	})
	if err := ag.Drain(ctx); err == nil {
		t.Fatal("cancelled drain reported success")
	}
	if n := spoolLen(t, spool); n != 1 {
		t.Fatalf("spool holds %d file(s) after cancel, want the undelivered snap", n)
	}

	// Process restart: a fresh agent against a healthy daemon resumes
	// from the spool alone.
	_, ts, arch := newTestDaemon(t, ServerOptions{})
	if err := fastAgent(spool, ts.URL).Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if n := spoolLen(t, spool); n != 0 || journalLen(t, arch) != 1 {
		t.Fatalf("resume after restart: %d spooled, %d journaled", n, journalLen(t, arch))
	}
}

// recordingDaemon answers the precheck with 404 and every upload with
// the hash echo of the body it decodes; bodies returns the upload
// bodies so far.
func recordingDaemon(t *testing.T) (ts *httptest.Server, bodies func() [][]byte) {
	t.Helper()
	var (
		mu   sync.Mutex
		seen [][]byte
	)
	ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		mu.Lock()
		seen = append(seen, body)
		mu.Unlock()
		sn, err := snap.LoadAuto(bytes.NewReader(body))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sum, _, _ := archive.ChecksumSnap(sn)
		writeJSON(w, http.StatusCreated, UploadResponse{V: 1, Sum: sum})
	}))
	t.Cleanup(ts.Close)
	return ts, func() [][]byte {
		mu.Lock()
		defer mu.Unlock()
		return seen
	}
}

func TestAgentUploadsGzipSpoolFileVerbatim(t *testing.T) {
	ts, bodies := recordingDaemon(t)
	spool := t.TempDir()
	path := mustSpool(t, spool, 1)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fastAgent(spool, ts.URL).Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := bodies(); len(got) != 1 || !bytes.Equal(got[0], want) {
		t.Fatalf("%d upload bodies, want the spool file's bytes exactly once", len(got))
	}
}

func TestAgentGzipsPlainSpoolFile(t *testing.T) {
	ts, bodies := recordingDaemon(t)
	spool := t.TempDir()
	s := mkSnap("h1", 1)
	var plain bytes.Buffer
	if err := s.Save(&plain); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spool, "app-1.snap.json"), plain.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := fastAgent(spool, ts.URL).Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	_, canonical, _ := archive.ChecksumSnap(s)
	var want bytes.Buffer
	if err := compressTo(&want, canonical); err != nil {
		t.Fatal(err)
	}
	if got := bodies(); len(got) != 1 || !bytes.Equal(got[0], want.Bytes()) {
		t.Fatalf("%d upload bodies, want the gzip of the canonical bytes exactly once", len(got))
	}
}

// TestAgentNonCanonicalGzipSpoolFile: a valid gzip spool file whose
// JSON is not the canonical form is still sent as it is; the daemon
// re-derives the canonical form, so the hash echo matches and the
// warehouse holds exactly what a direct ingest of the snap writes.
func TestAgentNonCanonicalGzipSpoolFile(t *testing.T) {
	_, ts, arch := newTestDaemon(t, ServerOptions{})
	spool := t.TempDir()
	s := mkSnap("h1", 3)
	doc, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var z bytes.Buffer
	if err := compressTo(&z, doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(spool, "indented.snap.json.gz"), z.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	a := fastAgent(spool, ts.URL)
	if err := a.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if n := spoolLen(t, spool); n != 0 || a.met.uploads.Load() != 1 {
		t.Fatalf("spool holds %d file(s), %d upload(s) committed; want 0 and 1", n, a.met.uploads.Load())
	}

	direct, err := archive.Open(filepath.Join(t.TempDir(), "direct"))
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	res, err := direct.IngestUnique(s, archive.SignSnap(s, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*archive.Archive{arch, direct} {
		if !w.Has(res.Sum) {
			t.Fatalf("%s does not hold %s", w.Root(), res.Sum)
		}
	}
	blob := func(w *archive.Archive) []byte {
		rc, _, err := w.OpenBlob(res.Sum)
		if err != nil {
			t.Fatal(err)
		}
		defer rc.Close()
		b, err := io.ReadAll(rc)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(blob(arch), blob(direct)) {
		t.Error("daemon blob differs from a direct ingest's")
	}
	gotJ, err := os.ReadFile(arch.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	wantJ, err := os.ReadFile(direct.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJ, wantJ) {
		t.Errorf("daemon journal differs from a direct ingest's:\n%s\nvs\n%s", gotJ, wantJ)
	}
}
