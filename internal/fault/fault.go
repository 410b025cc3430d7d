// Package fault is the solver's fault-containment toolkit: panic
// boundaries that convert a crashing computation into a structured
// diagnostic (Contain), a deterministic fault-injection schedule the
// engine consults at every Poll/Charge site (Schedule), and a
// goroutine-leak checker for the -race tests (Snapshot/CheckLeaks).
//
// The package sits below internal/engine (engine imports fault, never
// the reverse) and uses only the standard library.
//
// Panic policy. Production code distinguishes two kinds of panic:
//
//   - contract panics — violations of internal invariants ("pool
//     mismatch", "slack references slack") that indicate a bug in the
//     solver itself. They stay panics, are marked with a "// contract:"
//     comment at the panic site, and are converted to UNKNOWN verdicts
//     by the Contain boundaries rather than killing the process.
//   - input-reachable panics — anything a hostile input could trigger.
//     These must be errors, not panics; Contain is the backstop, not
//     the mechanism.
package fault

import (
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"
)

// Diagnostic describes one contained panic.
type Diagnostic struct {
	// ID is unique within the process ("f000001", ...); servers echo it
	// in error responses so a log line can be found from a client.
	ID string `json:"id"`
	// Boundary names the Contain call that recovered the panic
	// ("core.Solve", "server.worker").
	Boundary string `json:"boundary"`
	// Value is the rendered panic value.
	Value string `json:"value"`
	// Stack is the trimmed stack of the panicking goroutine.
	Stack string `json:"stack,omitempty"`
	// Injected is true when the panic came from a fault Schedule
	// rather than real code.
	Injected bool `json:"injected,omitempty"`
}

func (d *Diagnostic) String() string {
	if d == nil {
		return "<nil>"
	}
	return fmt.Sprintf("%s at %s: %s", d.ID, d.Boundary, d.Value)
}

// Error makes a Diagnostic usable as an error value.
func (d *Diagnostic) Error() string { return d.String() }

var diagSeq atomic.Uint64

// injected is the panic value used by InjectPanic so Contain can tell
// scheduled faults from real ones.
type injected struct{}

func (injected) String() string { return "fault: injected panic" }

// InjectPanic panics with the sentinel value a Schedule-driven
// injection uses; Contain marks the resulting Diagnostic as Injected.
func InjectPanic() {
	panic(injected{})
}

// Contain runs fn and recovers any panic, returning a Diagnostic for
// it (nil when fn returns normally). It is the trust boundary between
// the solver internals — which may contract-panic on a bug — and the
// layers that must keep running: the top-level solve, each parallel
// case-split branch, and each server worker.
func Contain(boundary string, fn func()) (d *Diagnostic) {
	defer func() {
		if v := recover(); v != nil {
			d = capture(boundary, v)
		}
	}()
	fn()
	return nil
}

func capture(boundary string, v any) *Diagnostic {
	d := &Diagnostic{
		ID:       fmt.Sprintf("f%06d", diagSeq.Add(1)),
		Boundary: boundary,
		Stack:    trimStack(debug.Stack()),
	}
	if _, ok := v.(injected); ok {
		d.Injected = true
		d.Value = injected{}.String()
	} else {
		d.Value = fmt.Sprintf("%v", v)
	}
	return d
}

// stackLimit bounds how much of a panicking stack a Diagnostic keeps:
// enough to find the site, small enough to ship in /stats.
const (
	stackMaxLines = 40
	stackMaxBytes = 4 << 10
)

// trimStack drops the recover machinery frames (debug.Stack, capture,
// the Contain deferred closure, runtime.gopanic) and truncates what
// remains to a bounded number of lines and bytes.
func trimStack(stack []byte) string {
	lines := strings.Split(string(stack), "\n")
	// A stack is a "goroutine N [state]:" header followed by pairs of
	// function and file:line lines. Skip machinery frame pairs at the
	// top; they describe the containment, not the fault.
	out := make([]string, 0, len(lines))
	if len(lines) > 0 && strings.HasPrefix(lines[0], "goroutine ") {
		out = append(out, lines[0])
		lines = lines[1:]
	}
	skip := [...]string{
		"runtime/debug.Stack",
		"repro/internal/fault.trimStack",
		"repro/internal/fault.capture",
		"repro/internal/fault.Contain",
		"runtime.gopanic",
		"panic(",
	}
	for i := 0; i < len(lines); i++ {
		fn := lines[i]
		machinery := false
		for _, s := range skip {
			if strings.Contains(fn, s) {
				machinery = true
				break
			}
		}
		if machinery {
			i++ // swallow the paired file:line
			continue
		}
		out = append(out, fn)
	}
	if len(out) > stackMaxLines {
		out = append(out[:stackMaxLines], "\t...")
	}
	s := strings.Join(out, "\n")
	if len(s) > stackMaxBytes {
		s = s[:stackMaxBytes] + "\n\t..."
	}
	return strings.TrimRight(s, "\n")
}
