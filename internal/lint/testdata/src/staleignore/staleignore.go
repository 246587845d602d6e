// Package staleignore is the fixture for stale-suppression reporting: a
// //lint:ignore directive must suppress a diagnostic of the analyzer it
// names on its own line or the next, or it is reported itself. The test
// runs guardedby only.
package staleignore

import "sync"

type counter struct {
	mu sync.Mutex
	n  int // guarded by mu
}

// Peek's directive is used: it suppresses a real guardedby finding.
func (c *counter) Peek() int {
	//lint:ignore guardedby fixture for a used suppression
	return c.n
}

// Inc's directive is stale: the lock is held, so there is nothing to
// suppress.
func (c *counter) Inc() {
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:ignore guardedby held above // want `stale //lint:ignore guardedby: no guardedby diagnostic`
	c.n++
}

// Reset's directive names an analyzer this run left out, so it is not
// judged.
func (c *counter) Reset() {
	c.mu.Lock()
	//lint:ignore walorder judged only when walorder runs
	c.n = 0
	c.mu.Unlock()
}
