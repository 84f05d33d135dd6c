package fleet

import (
	"fmt"
	"sort"
)

// Membership is the epoch-numbered live view of a fixed worker slot space
// [0, n). The live set is kept sorted by slot id — the shard-slot order the
// coordinator derives per-round seeds over — so re-admitting slot s puts it
// back at its original position and a whole live set is indistinguishable
// from one that never degraded. Membership is not goroutine-safe: it
// belongs to the game loop, and the supervisor mutates it only at round
// boundaries on that goroutine.
type Membership struct {
	n      int
	epoch  int
	alive  []int
	live   []bool
	events []Event
}

// NewMembership returns epoch 0 with every slot of [0, n) live.
func NewMembership(n int) *Membership {
	m := &Membership{n: n, live: make([]bool, n)}
	for s := 0; s < n; s++ {
		m.alive = append(m.alive, s)
		m.live[s] = true
	}
	return m
}

// Slots returns the size of the slot space (the transport's worker count).
func (m *Membership) Slots() int { return m.n }

// Epoch returns the current membership epoch: 0 at game start, incremented
// by every drop and every admission. Besides naming the repartitioning
// generation, the epoch is the validity stamp of the engine's pipelined
// round schedule: a speculated round built under one epoch may only be
// consumed under the same epoch — any membership change in between (a drop
// mid-broadcast, a boundary drop or re-admission) forces the coordinator
// to flush and re-fan the round over the new live set, which is what keeps
// kill/rejoin runs record-for-record comparable under -pipeline.
func (m *Membership) Epoch() int { return m.epoch }

// Alive returns the live slots in shard-slot order. The slice is shared;
// callers must not mutate it.
func (m *Membership) Alive() []int { return m.alive }

// Live reports whether a slot is in the live set.
func (m *Membership) Live(slot int) bool {
	return slot >= 0 && slot < m.n && m.live[slot]
}

// Down returns the dead slots in slot order.
func (m *Membership) Down() []int {
	var down []int
	for s := 0; s < m.n; s++ {
		if !m.live[s] {
			down = append(down, s)
		}
	}
	return down
}

// Whole reports whether every slot is live.
func (m *Membership) Whole() bool { return len(m.alive) == m.n }

// Drop removes a slot from the live set, bumping the epoch and recording
// the event against the round whose fan-in lost the slot. Dropping a slot
// that is already down is a no-op (a round's two fan-outs can both fail on
// the same worker).
func (m *Membership) Drop(slot, round int) {
	if !m.Live(slot) {
		return
	}
	m.live[slot] = false
	for i, s := range m.alive {
		if s == slot {
			m.alive = append(m.alive[:i], m.alive[i+1:]...)
			break
		}
	}
	m.epoch++
	m.events = append(m.events, Event{Kind: EventDrop, Epoch: m.epoch, Round: round, Worker: slot})
}

// Admit returns a slot to the live set at its sorted shard-slot position,
// bumping the epoch; round is the first round the slot serves again.
// Admitting a live or out-of-range slot is an error — the supervisor only
// admits slots it has seen down.
func (m *Membership) Admit(slot, round int) error {
	if slot < 0 || slot >= m.n {
		return fmt.Errorf("fleet: admit slot %d outside [0, %d)", slot, m.n)
	}
	if m.live[slot] {
		return fmt.Errorf("fleet: admit slot %d which is already live", slot)
	}
	i := sort.SearchInts(m.alive, slot)
	m.alive = append(m.alive, 0)
	copy(m.alive[i+1:], m.alive[i:])
	m.alive[i] = slot
	m.live[slot] = true
	m.epoch++
	m.events = append(m.events, Event{Kind: EventAdmit, Epoch: m.epoch, Round: round, Worker: slot})
	return nil
}

// Hold takes the last k slots out of the live set before the game starts,
// with no event and no epoch: an elastic game's growth slots, which enter
// later through Admit like any re-joining slot. k must leave a slot live.
func (m *Membership) Hold(k int) {
	for _, s := range m.alive[len(m.alive)-k:] {
		m.live[s] = false
	}
	m.alive = m.alive[:len(m.alive)-k]
}

// Events returns the membership change log in order. The slice is shared;
// callers must not mutate it.
func (m *Membership) Events() []Event { return m.events }

// WholeSince returns the first round from which the live set has been whole
// without interruption (1 for a never-degraded fleet), or 0 when the fleet
// is currently degraded. A record-for-record verification against an
// uninterrupted reference may assert equality from this round on.
func (m *Membership) WholeSince() int {
	if !m.Whole() {
		return 0
	}
	return WholeSinceLog(m.n, m.events)
}

// WholeSinceLog computes WholeSince over a bare event log for n slots —
// the form a resumed coordinator needs, whose history spans a snapshot
// boundary and therefore lives in a combined log rather than one live
// Membership. Returns 0 when the log ends with any slot down.
func WholeSinceLog(n int, events []Event) int {
	down := make(map[int]bool)
	since := 1
	for _, ev := range events {
		switch ev.Kind {
		case EventDrop:
			down[ev.Worker] = true
			since = 0
		case EventAdmit:
			delete(down, ev.Worker)
			if len(down) == 0 {
				// The admission that restored wholeness serves from ev.Round.
				since = ev.Round
			}
		}
	}
	if len(down) > 0 {
		return 0
	}
	return since
}
