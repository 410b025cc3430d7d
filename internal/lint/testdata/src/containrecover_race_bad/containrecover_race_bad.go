// Package containrecover_race_bad holds the failing half of the
// racing fixture pair: goroutines racing engines, launched without a
// fault.Contain panic boundary. A panicking backend would kill the
// whole process instead of degrading to one lost race attempt.
package containrecover_race_bad

// boundary mimics the fault package's Contain surface.
type boundary struct{}

func (boundary) Contain(name string, fn func()) error {
	fn()
	return nil
}

var fault boundary

type backend interface {
	Name() string
	Solve() int
}

// race spawns one goroutine per backend with no panic boundary: a
// crash in any engine escapes every recover on the spawning stack.
func race(pool []backend, out chan<- int) {
	for _, b := range pool {
		b := b
		go func() { // want containrecover
			out <- b.Solve()
		}()
	}
}

// raceNamed hands the backend to a named runner the check cannot
// inspect locally, unannotated.
func raceNamed(pool []backend, out chan<- int) {
	for _, b := range pool {
		go runBackend(b, out) // want containrecover
	}
}

func runBackend(b backend, out chan<- int) { out <- b.Solve() }

// raceDeferredContain only installs the boundary inside a nested
// literal that may never run on the spawned goroutine itself.
func raceDeferredContain(b backend, out chan<- int) {
	go func() { // want containrecover
		guard := func() {
			_ = fault.Contain("try."+b.Name(), func() { out <- b.Solve() })
		}
		_ = guard
	}()
}
