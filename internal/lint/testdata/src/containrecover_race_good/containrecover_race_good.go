// Package containrecover_race_good holds the passing half of the
// racing fixture pair: goroutines racing engines, whose bodies run
// under a fault.Contain boundary, so a crashing engine degrades to one
// lost race attempt instead of a process death.
package containrecover_race_good

import "sync"

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

// race has the shape of a parallel branch race: the go literal's body
// calls Contain directly, so the boundary is provably on the goroutine.
func race(pool []backend, out chan<- int) {
	var wg sync.WaitGroup
	for _, b := range pool {
		b := b
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = fault.Contain("try."+b.Name(), func() {
				out <- b.Solve()
			})
		}()
	}
	wg.Wait()
}

// joiner spawns pure channel plumbing and says so.
func joiner(wg *sync.WaitGroup, done chan struct{}) {
	go func() { //lint:nocontain waits and closes a channel, no solver code
		wg.Wait()
		close(done)
	}()
}
