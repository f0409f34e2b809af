package obs

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestLoggerLevels(t *testing.T) {
	cases := []struct {
		verbosity         int
		wantInfo, wantDbg bool
	}{
		{0, false, false},
		{1, true, false},
		{2, true, true},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		l := NewLogger(&buf, "tool", c.verbosity)
		l.Debug("dbg")
		l.Info("inf")
		l.Warn("wrn")
		out := buf.String()
		if got := strings.Contains(out, "inf"); got != c.wantInfo {
			t.Errorf("verbosity %d: info logged = %v, want %v", c.verbosity, got, c.wantInfo)
		}
		if got := strings.Contains(out, "dbg"); got != c.wantDbg {
			t.Errorf("verbosity %d: debug logged = %v, want %v", c.verbosity, got, c.wantDbg)
		}
		if !strings.Contains(out, "tool: WARN: wrn") {
			t.Errorf("verbosity %d: warn missing or unprefixed: %q", c.verbosity, out)
		}
	}
}

func TestLoggerAttrsOneLine(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, "dse", 1)
	l.Info("stage done", "stage", "trace", "ms", 12)
	got := buf.String()
	if got != "dse: stage done stage=trace ms=12\n" {
		t.Errorf("line = %q", got)
	}
}

func TestNilLoggerIsInert(t *testing.T) {
	var l *Logger
	l.Debug("a")
	l.Info("b")
	l.Warn("c")
	l.Error("d")
	if l.Verbosity() != 0 {
		t.Error("nil logger leaked state")
	}
}

// chunkRecorder records each Write call separately, so the test can
// detect torn (multi-write) lines.
type chunkRecorder struct {
	mu     sync.Mutex
	writes []string
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, string(p))
	c.mu.Unlock()
	return len(p), nil
}

var _ io.Writer = (*chunkRecorder)(nil)

func TestLoggerConcurrentWritesAreWholeLines(t *testing.T) {
	rec := &chunkRecorder{}
	l := NewLogger(rec, "t", 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l.Info("progress", "worker", i, "step", j)
			}
		}(i)
	}
	wg.Wait()
	if len(rec.writes) != 800 {
		t.Fatalf("writes = %d, want 800 (one per record)", len(rec.writes))
	}
	for _, w := range rec.writes {
		if !strings.HasPrefix(w, "t: progress worker=") || !strings.HasSuffix(w, "\n") {
			t.Fatalf("torn or malformed line %q", w)
		}
		if strings.Count(w, "\n") != 1 {
			t.Fatalf("multiple lines in one write: %q", w)
		}
	}
}
