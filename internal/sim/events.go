package sim

import (
	"rescue/internal/logic"
)

// eventQueue is a level-bucketed event queue over a compiled machine's
// combinational gates, shared by the event-driven passes (RunDualEvents,
// Evaluator.PropagateFrom). Every bucket is sized to its level's gate
// count and a gate is queued at most once per pass, so the queue never
// grows after construction.
type eventQueue struct {
	start []int32  // per level: first slot of the level's bucket
	tail  []int32  // per level: next free slot of the level's bucket
	slot  []int32  // bucket arena, one slot per combinational gate
	mark  []uint32 // per gate: the epoch in which it was last queued
	epoch uint32   // current pass's queue epoch
	hi    int32    // highest level with queued gates
}

func (c *Compiled) newEventQueue() eventQueue {
	q := eventQueue{
		start: make([]int32, c.maxLevel+1),
		tail:  make([]int32, c.maxLevel+1),
		slot:  make([]int32, len(c.schedule)),
		mark:  make([]uint32, len(c.code)),
	}
	for _, id := range c.schedule {
		q.tail[c.level[id]]++
	}
	var at int32
	for l, cnt := range q.tail {
		q.start[l] = at
		q.tail[l] = at
		at += cnt
	}
	return q
}

// begin opens a pass on the queue. The caller then queues the fanout of
// the gates it changed and drains the buckets from level 1 (the lowest
// combinational level) up to q.hi, resetting each bucket's tail after
// draining it. Fanout lies on strictly higher levels, so each bucket is
// complete before its first gate is drained.
func (q *eventQueue) begin() {
	q.epoch++
	if q.epoch == 0 {
		clear(q.mark)
		q.epoch = 1
	}
	q.hi = 0
}

// queueFanoutEvents queues every combinational reader of gate id not
// already queued in the current pass.
func (c *Compiled) queueFanoutEvents(q *eventQueue, id int32) {
	for _, fo := range c.fanout[c.fanoutOff[id]:c.fanoutOff[id+1]] {
		if q.mark[fo] == q.epoch {
			continue
		}
		q.mark[fo] = q.epoch
		l := c.level[fo]
		q.slot[q.tail[l]] = fo
		q.tail[l]++
		if l > q.hi {
			q.hi = l
		}
	}
}

// DualEvents is the caller-owned scratch of RunDualEvents. One
// DualEvents serves one good/faulty machine pair; it is not safe for
// concurrent use, but any number of them may share one Compiled.
type DualEvents struct {
	q       eventQueue
	scratch []logic.V // fanin gather buffer for pin-fault evaluation
}

// NewDualEvents allocates the event scratch for one machine pair.
func (c *Compiled) NewDualEvents() *DualEvents {
	return &DualEvents{q: c.newEventQueue(), scratch: c.NewValueScratch()}
}

// RunDualEvents is the event-driven form of RunDualWithFault. gv and fv
// must hold a completed dual pass for fault f (a RunDualWithFault pass,
// or an earlier RunDualEvents call) except at the Input/DFF gates listed
// in changed, whose held values the caller has just rewritten in both
// arrays (an output-site fault's fv stays forced). It re-evaluates, in
// level order, only the combinational fanout of those gates, and stops
// wherever neither machine's value changes; afterwards gv and fv equal
// a fresh RunDualWithFault pass bit for bit. It returns the number of
// gates evaluated — the exact cost of the call.
func (c *Compiled) RunDualEvents(gv, fv []logic.V, f FaultSite, ev *DualEvents, changed []int32) int {
	q := &ev.q
	q.begin()
	for _, id := range changed {
		c.queueFanoutEvents(q, id)
	}
	fg := int32(f.Gate)
	fanin, off := c.fanin, c.faninOff
	evals := 0
	for l := int32(1); l <= q.hi; l++ {
		for _, id := range q.slot[q.start[l]:q.tail[l]] {
			op := c.code[id]
			fan := fanin[off[id]:off[id+1]]
			g := evalOpV(op, fan, gv)
			var v logic.V
			switch {
			case id == fg && f.Pin >= 0:
				vals := ev.scratch[:len(fan)]
				for i, fi := range fan {
					vals[i] = fv[fi]
				}
				vals[f.Pin] = f.SA
				v = c.evalOpValsV(op, vals)
			case id == fg:
				v = f.SA
			default:
				v = evalOpV(op, fan, fv)
			}
			evals++
			if g != gv[id] || v != fv[id] {
				gv[id], fv[id] = g, v
				c.queueFanoutEvents(q, id)
			}
		}
		q.tail[l] = q.start[l]
	}
	return evals
}

// runEvents is the single-machine event-driven pass behind
// Evaluator.PropagateFrom: after the caller rewrote the values of the
// gates in changed, it re-evaluates their combinational fanout in level
// order, stopping wherever a value does not change, and returns the
// number of gates whose value changed.
func (c *Compiled) runEvents(values []logic.V, q *eventQueue, changed []int) int {
	q.begin()
	for _, id := range changed {
		c.queueFanoutEvents(q, int32(id))
	}
	fanin, off := c.fanin, c.faninOff
	events := 0
	for l := int32(1); l <= q.hi; l++ {
		for _, id := range q.slot[q.start[l]:q.tail[l]] {
			if v := evalOpV(c.code[id], fanin[off[id]:off[id+1]], values); v != values[id] {
				values[id] = v
				events++
				c.queueFanoutEvents(q, id)
			}
		}
		q.tail[l] = q.start[l]
	}
	return events
}
