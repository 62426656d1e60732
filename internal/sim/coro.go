//go:build go1.23

package sim

import "iter"

// resume runs p until it yields or finishes. The first resume makes the
// process a coroutine of Run's goroutine and starts its body; each later
// one continues it from its yield.
func (e *Engine) resume(p *Proc) {
	if p.next == nil {
		p.idx = len(e.procs)
		e.procs = append(e.procs, p)
		p.next, p.stop = iter.Pull(p.run)
	}
	p.next()
}
