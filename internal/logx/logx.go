// Package logx is a tiny leveled, structured (logfmt) logger for the
// runtime's operational messages. Worker processes write one line per
// event with stable key=value fields (ts, level, worker, gen, msg) so
// dist stderr is machine-parseable — no multi-line output, no free-form
// prefixes. Zero dependencies, safe for concurrent use.
package logx

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Level gates which messages are written.
type Level int8

const (
	Debug Level = iota
	Info
	Warn
	Error
	// Off discards everything.
	Off
)

// String names the level for the logfmt level= field.
func (l Level) String() string {
	switch l {
	case Debug:
		return "debug"
	case Info:
		return "info"
	case Warn:
		return "warn"
	case Error:
		return "error"
	default:
		return "off"
	}
}

// ParseLevel maps a name to its level (defaulting to Info on unknown
// input) — for TSTORM_LOG-style environment knobs.
func ParseLevel(s string) Level {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return Debug
	case "warn", "warning":
		return Warn
	case "error":
		return Error
	case "off", "none":
		return Off
	default:
		return Info
	}
}

// Field is one bound key=value pair.
type Field struct {
	Key   string
	Value string
}

// Logger writes logfmt lines at or above its level. With returns a child
// sharing the sink and level but carrying extra bound fields, so a
// worker binds worker= and gen= once and every line carries them.
type Logger struct {
	out    *sink
	level  Level
	fields []Field
	now    func() time.Time
}

// sink serializes writes from all derived loggers.
type sink struct {
	mu sync.Mutex
	w  io.Writer
}

// New returns a logger writing to w at the given threshold.
func New(w io.Writer, level Level) *Logger {
	return &Logger{out: &sink{w: w}, level: level, now: time.Now}
}

// With returns a child logger with an extra bound field. The receiver is
// unchanged; children are cheap to mint per-connection or per-generation.
func (l *Logger) With(key, value string) *Logger {
	child := *l
	child.fields = append(append([]Field(nil), l.fields...), Field{key, value})
	return &child
}

// Enabled reports whether messages at lv would be written.
func (l *Logger) Enabled(lv Level) bool { return lv >= l.level && l.level != Off }

func (l *Logger) Infof(format string, args ...any)  { l.logf(Info, format, args...) }
func (l *Logger) Warnf(format string, args ...any)  { l.logf(Warn, format, args...) }
func (l *Logger) Errorf(format string, args ...any) { l.logf(Error, format, args...) }

func (l *Logger) logf(lv Level, format string, args ...any) {
	if !l.Enabled(lv) {
		return
	}
	var b strings.Builder
	b.Grow(96)
	b.WriteString("ts=")
	b.WriteString(l.now().UTC().Format("2006-01-02T15:04:05.000Z"))
	b.WriteString(" level=")
	b.WriteString(lv.String())
	for _, f := range l.fields {
		b.WriteByte(' ')
		b.WriteString(f.Key)
		b.WriteByte('=')
		writeValue(&b, f.Value)
	}
	b.WriteString(" msg=")
	writeValue(&b, fmt.Sprintf(format, args...))
	b.WriteByte('\n')
	l.out.mu.Lock()
	io.WriteString(l.out.w, b.String())
	l.out.mu.Unlock()
}

// writeValue emits v bare when it is a clean token, quoted (with escaped
// quotes, backslashes, and newlines) otherwise.
func writeValue(b *strings.Builder, v string) {
	if v != "" && !strings.ContainsAny(v, " \t\n\"\\=") {
		b.WriteString(v)
		return
	}
	b.WriteByte('"')
	for _, r := range v {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
}
