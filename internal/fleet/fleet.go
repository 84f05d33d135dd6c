// Package fleet is the membership and supervision runtime of the
// distributed collection games (DESIGN.md §8). It sits between the
// coordinator game loops (internal/collect) and the transport layer
// (internal/cluster) and turns the cluster's "worker failure is forever"
// into a supervised fleet:
//
//   - an epoch-numbered Membership tracks which shard slots are live;
//     every change — a drop after a failed call or heartbeat timeout, an
//     admission of a re-joining or growth slot — bumps the epoch and is
//     recorded as an Event;
//   - a heartbeat Monitor probes live workers on a configurable interval
//     (liveness for workers that hang rather than fail) and probes down
//     workers so a re-spawned replacement is noticed promptly;
//   - a Supervisor applies membership changes only at round boundaries,
//     which is what keeps supervised runs deterministic: the arrivals of a
//     round are a pure function of (master seed, live slot count), so a
//     run that loses a worker and re-admits it matches the uninterrupted
//     shard-local reference record for record from the first round the
//     live set is whole again;
//   - a Checkpointer persists wire-encoded coordinator Snapshots every k
//     rounds, so a restarted coordinator resumes a game mid-flight
//     (`trimlab coordinator -resume`) and finishes with the identical
//     board and kept-stream estimates.
package fleet

import (
	"time"

	"repro/internal/obs"
)

// Config parameterizes fleet supervision of one cluster game.
type Config struct {
	// Heartbeat is the background liveness-probe interval; 0 disables the
	// background monitor, leaving liveness to be observed through game
	// calls and the synchronous round-boundary re-join probes.
	Heartbeat time.Duration

	// Timeout is how long a live worker may go uncontacted (no successful
	// game call or heartbeat) before the supervisor declares it dead at the
	// next round boundary; 4×Heartbeat when 0. Only meaningful with a
	// running monitor — without one, failure is detected by failing calls.
	Timeout time.Duration

	// Rejoin enables re-admission: at every round boundary the supervisor
	// tries to revive and re-admit down slots. Without it the fleet only
	// observes (heartbeats, epochs, loss events) and failure stays
	// drop-forever.
	Rejoin bool

	// CallTimeout bounds every game-phase transport call when set: a call
	// that neither answers nor fails within it counts as a failure and the
	// slot is dropped (re-admittable later), so a *hung* worker cannot hang
	// the game — the heartbeat monitor alone cannot help there, since its
	// staleness drops apply at round boundaries a hung call never reaches.
	// 0 leaves game calls unbounded (the default: a timeout shorter than
	// your worst-case round would drop healthy workers; set it comfortably
	// above the slowest round you expect).
	CallTimeout time.Duration

	// Log receives supervision lifecycle events (typed obs events for
	// drops and re-admissions, free-form lines otherwise); nil discards
	// them (obs.Logger methods are nil-receiver safe).
	Log *obs.Logger

	// Now is the clock; time.Now when nil (tests inject a fake).
	Now func() time.Time
}

// timeout resolves the effective liveness window.
func (c Config) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return 4 * c.Heartbeat
}

// now resolves the clock.
func (c Config) now() func() time.Time {
	if c.Now != nil {
		return c.Now
	}
	return time.Now
}

// EventKind tags a membership event.
type EventKind byte

// The membership events (an elastic game's growth slot enters by admission).
const (
	EventDrop  EventKind = 1 // a slot left the live set
	EventAdmit EventKind = 2 // a slot (re-)entered the live set
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventDrop:
		return "drop"
	case EventAdmit:
		return "admit"
	}
	return "unknown"
}

// Event is one membership change: which worker slot left or entered the
// live set, the round it took effect (for drops, the round whose fan-in ran
// short; for admissions, the first round the slot serves again) and the
// epoch in force after the change.
type Event struct {
	Kind   EventKind
	Epoch  int
	Round  int
	Worker int
}
