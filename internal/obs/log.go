package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
)

// Logger is a small leveled logger for driver narration, backed by
// log/slog with a line-oriented handler: every record renders as one
// "tool: msg key=value ..." line emitted in a single Write, so progress
// narration from concurrent workers can never interleave mid-line.
//
// Verbosity maps -v style flags to slog levels: 0 logs warnings and
// errors only, 1 (-v) adds info, 2 (-vv) adds debug. A nil *Logger
// drops everything.
type Logger struct {
	s         *slog.Logger
	verbosity int
}

// NewLogger creates a logger writing tool-prefixed lines to w.
func NewLogger(w io.Writer, tool string, verbosity int) *Logger {
	level := slog.LevelWarn
	switch {
	case verbosity >= 2:
		level = slog.LevelDebug
	case verbosity == 1:
		level = slog.LevelInfo
	}
	h := &lineHandler{w: w, tool: tool, level: level, mu: &sync.Mutex{}}
	return &Logger{s: slog.New(h), verbosity: verbosity}
}

// Verbosity returns the verbosity the logger was built with.
func (l *Logger) Verbosity() int {
	if l == nil {
		return 0
	}
	return l.verbosity
}

// Debug logs at -vv level. kvs are alternating key/value pairs as in
// slog.
func (l *Logger) Debug(msg string, kvs ...any) {
	if l == nil {
		return
	}
	l.s.Debug(msg, kvs...)
}

// DebugCtx is Debug with the request/trace ID (if ctx carries one)
// appended as a trailing req= attribute, so log lines and flight-
// recorder trace fragments correlate by ID.
func (l *Logger) DebugCtx(ctx context.Context, msg string, kvs ...any) {
	if l == nil {
		return
	}
	l.s.Debug(msg, withReq(ctx, kvs)...)
}

// InfoCtx is Info with the request/trace ID appended (see DebugCtx).
func (l *Logger) InfoCtx(ctx context.Context, msg string, kvs ...any) {
	if l == nil {
		return
	}
	l.s.Info(msg, withReq(ctx, kvs)...)
}

// withReq appends ("req", id) when ctx carries a request ID.
func withReq(ctx context.Context, kvs []any) []any {
	if id := RequestID(ctx); id != "" {
		return append(kvs, "req", id)
	}
	return kvs
}

// Info logs at -v level.
func (l *Logger) Info(msg string, kvs ...any) {
	if l == nil {
		return
	}
	l.s.Info(msg, kvs...)
}

// Warn logs unconditionally (shown without -v).
func (l *Logger) Warn(msg string, kvs ...any) {
	if l == nil {
		return
	}
	l.s.Warn(msg, kvs...)
}

// Error logs unconditionally.
func (l *Logger) Error(msg string, kvs ...any) {
	if l == nil {
		return
	}
	l.s.Error(msg, kvs...)
}

// lineHandler renders records as single atomic lines. It deliberately
// omits timestamps: driver narration diffs cleanly across runs and the
// span tracer is the timing source of record.
type lineHandler struct {
	mu    *sync.Mutex
	w     io.Writer
	tool  string
	level slog.Level
	attrs []slog.Attr
}

func (h *lineHandler) Enabled(_ context.Context, level slog.Level) bool {
	return level >= h.level
}

func (h *lineHandler) Handle(_ context.Context, r slog.Record) error {
	buf := make([]byte, 0, 128)
	buf = append(buf, h.tool...)
	buf = append(buf, ": "...)
	if r.Level >= slog.LevelWarn {
		buf = append(buf, r.Level.String()...)
		buf = append(buf, ": "...)
	}
	buf = append(buf, r.Message...)
	for _, a := range h.attrs {
		buf = appendAttr(buf, a)
	}
	r.Attrs(func(a slog.Attr) bool {
		buf = appendAttr(buf, a)
		return true
	})
	buf = append(buf, '\n')
	h.mu.Lock()
	_, err := h.w.Write(buf)
	h.mu.Unlock()
	return err
}

func appendAttr(buf []byte, a slog.Attr) []byte {
	if a.Equal(slog.Attr{}) {
		return buf
	}
	buf = append(buf, ' ')
	buf = append(buf, a.Key...)
	buf = append(buf, '=')
	return fmt.Appendf(buf, "%v", a.Value.Resolve().Any())
}

func (h *lineHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := *h
	nh.attrs = append(append([]slog.Attr(nil), h.attrs...), attrs...)
	return &nh
}

func (h *lineHandler) WithGroup(string) slog.Handler { return h }
