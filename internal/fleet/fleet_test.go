package fleet

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/stats/summary"
	"repro/internal/wire"
)

func TestMembershipDropAdmitEpochs(t *testing.T) {
	m := NewMembership(4)
	if m.Epoch() != 0 || !m.Whole() || m.WholeSince() != 1 {
		t.Fatalf("fresh membership: epoch %d whole %v since %d", m.Epoch(), m.Whole(), m.WholeSince())
	}
	m.Drop(2, 5)
	if m.Epoch() != 1 || m.Whole() || m.Live(2) {
		t.Fatalf("after drop: epoch %d whole %v live(2) %v", m.Epoch(), m.Whole(), m.Live(2))
	}
	if got := m.Alive(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("alive after drop = %v", got)
	}
	if got := m.Down(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("down = %v", got)
	}
	if m.WholeSince() != 0 {
		t.Fatalf("degraded fleet reports WholeSince %d", m.WholeSince())
	}
	// Double-drop is a no-op (both phases of a round can fail on one worker).
	m.Drop(2, 5)
	if m.Epoch() != 1 || len(m.Events()) != 1 {
		t.Fatalf("double drop bumped state: epoch %d events %d", m.Epoch(), len(m.Events()))
	}
	// Re-admission restores the slot at its sorted shard-slot position.
	if err := m.Admit(2, 8); err != nil {
		t.Fatal(err)
	}
	if got := m.Alive(); len(got) != 4 || got[2] != 2 {
		t.Fatalf("alive after admit = %v (slot order lost)", got)
	}
	if m.Epoch() != 2 || !m.Whole() || m.WholeSince() != 8 {
		t.Fatalf("after admit: epoch %d whole %v since %d", m.Epoch(), m.Whole(), m.WholeSince())
	}
	ev := m.Events()
	if len(ev) != 2 || ev[0].Kind != EventDrop || ev[1].Kind != EventAdmit ||
		ev[1].Round != 8 || ev[1].Epoch != 2 || ev[1].Worker != 2 {
		t.Fatalf("events = %+v", ev)
	}
	if err := m.Admit(2, 9); err == nil {
		t.Fatal("admitting a live slot succeeded")
	}
	if err := m.Admit(9, 9); err == nil {
		t.Fatal("admitting an out-of-range slot succeeded")
	}
}

// An elastic game's growth slots start held out — not live, no event, no
// epoch — and enter through Admit, one epoch each; the fleet is whole from
// the round the last of them serves.
func TestMembershipHoldAdmitsGrowthSlots(t *testing.T) {
	m := NewMembership(5)
	m.Hold(2)
	if got := m.Alive(); len(got) != 3 || got[2] != 2 {
		t.Fatalf("alive after hold = %v, want [0 1 2]", got)
	}
	if m.Live(3) || m.Live(4) || m.Whole() || m.Epoch() != 0 || len(m.Events()) != 0 || m.WholeSince() != 0 {
		t.Fatalf("after hold: live(3) %v live(4) %v whole %v epoch %d events %v since %d",
			m.Live(3), m.Live(4), m.Whole(), m.Epoch(), m.Events(), m.WholeSince())
	}
	for i, s := range []int{3, 4} {
		if err := m.Admit(s, 6); err != nil {
			t.Fatal(err)
		}
		if m.Epoch() != i+1 {
			t.Fatalf("admitting slot %d: epoch %d, want %d", s, m.Epoch(), i+1)
		}
	}
	if !m.Whole() || m.WholeSince() != 6 || len(m.Events()) != 2 || m.Events()[1].Kind != EventAdmit {
		t.Fatalf("after growth: whole %v since %d events %+v", m.Whole(), m.WholeSince(), m.Events())
	}
	m.Hold(0) // nothing held: a no-op
	if len(m.Alive()) != 5 {
		t.Fatalf("Hold(0) changed the live set: %v", m.Alive())
	}
}

// WholeSinceLog mirrors Membership.WholeSince over a bare log — including
// logs that end degraded or restore wholeness through interleaved
// drop/admit pairs across different slots.
func TestWholeSinceLog(t *testing.T) {
	drop := func(w, r int) Event { return Event{Kind: EventDrop, Worker: w, Round: r} }
	admit := func(w, r int) Event { return Event{Kind: EventAdmit, Worker: w, Round: r} }
	cases := []struct {
		events []Event
		want   int
	}{
		{nil, 1},
		{[]Event{drop(1, 3)}, 0},
		{[]Event{drop(1, 3), admit(1, 5)}, 5},
		{[]Event{drop(0, 2), drop(1, 3), admit(0, 4)}, 0},
		{[]Event{drop(0, 2), drop(1, 3), admit(0, 4), admit(1, 6)}, 6},
		{[]Event{drop(0, 2), admit(0, 3), drop(0, 7), admit(0, 9)}, 9},
		// A re-drop of an already-down slot (both phases of a round failing)
		// must not confuse the accounting.
		{[]Event{drop(1, 3), drop(1, 3), admit(1, 5)}, 5},
	}
	for i, c := range cases {
		if got := WholeSinceLog(3, c.events); got != c.want {
			t.Errorf("case %d: WholeSinceLog = %d, want %d", i, got, c.want)
		}
	}
}

func TestMembershipWholeSinceMultipleCycles(t *testing.T) {
	m := NewMembership(2)
	m.Drop(0, 3)
	if err := m.Admit(0, 5); err != nil {
		t.Fatal(err)
	}
	m.Drop(1, 7)
	if err := m.Admit(1, 9); err != nil {
		t.Fatal(err)
	}
	if m.WholeSince() != 9 {
		t.Fatalf("WholeSince = %d, want 9", m.WholeSince())
	}
}

// The supervisor applies re-admission only at round boundaries and only for
// slots whose revive and probe both succeed; the epoch handed to the admit
// callback is the epoch the admission creates.
func TestSupervisorRejoinAtBoundary(t *testing.T) {
	var mu sync.Mutex
	down := map[int]bool{1: true}
	probe := func(w int) error {
		mu.Lock()
		defer mu.Unlock()
		if down[w] {
			return errors.New("down")
		}
		return nil
	}
	revived := 0
	revive := func(w int) error {
		mu.Lock()
		defer mu.Unlock()
		revived++
		if down[w] {
			return errors.New("still down")
		}
		return nil
	}
	s := NewSupervisor(3, Config{Rejoin: true}, probe, revive)
	defer s.Close()
	s.Drop(1, 2)

	admits := 0
	admit := func(w, epoch int) error {
		admits++
		if w != 1 {
			t.Fatalf("admit offered slot %d", w)
		}
		if epoch != s.Membership().Epoch()+1 {
			t.Fatalf("admit epoch %d, membership at %d", epoch, s.Membership().Epoch())
		}
		return nil
	}
	s.BeginRound(3, admit)
	if admits != 0 || s.Membership().Whole() {
		t.Fatal("dead slot re-admitted while still down")
	}
	mu.Lock()
	down[1] = false
	mu.Unlock()
	s.BeginRound(4, admit)
	if admits != 1 || !s.Membership().Whole() {
		t.Fatalf("revived slot not admitted: admits %d whole %v", admits, s.Membership().Whole())
	}
	if revived < 2 {
		t.Fatalf("revive attempted %d times, want one per boundary", revived)
	}
	if since := s.Membership().WholeSince(); since != 4 {
		t.Fatalf("WholeSince = %d, want 4", since)
	}
}

// An admit-callback failure (e.g. the worker dies again mid-handshake)
// leaves the slot down for a later retry.
func TestSupervisorAdmitFailureKeepsSlotDown(t *testing.T) {
	probe := func(int) error { return nil }
	s := NewSupervisor(2, Config{Rejoin: true}, probe, nil)
	defer s.Close()
	s.Drop(0, 1)
	s.BeginRound(2, func(w, epoch int) error { return errors.New("handshake failed") })
	if s.Membership().Whole() {
		t.Fatal("failed handshake still admitted the slot")
	}
	s.BeginRound(3, func(w, epoch int) error { return nil })
	if !s.Membership().Whole() {
		t.Fatal("retry at the next boundary did not admit")
	}
}

// Without Rejoin the supervisor observes but never re-admits.
func TestSupervisorNoRejoin(t *testing.T) {
	s := NewSupervisor(2, Config{}, func(int) error { return nil }, nil)
	defer s.Close()
	s.Drop(1, 1)
	s.BeginRound(2, func(w, epoch int) error {
		t.Fatal("admission attempted without Rejoin")
		return nil
	})
	if s.Membership().Whole() {
		t.Fatal("membership healed without Rejoin")
	}
}

// The heartbeat monitor declares a live worker stale once it has been out
// of contact past the timeout, and the supervisor drops it at the next
// boundary; a down worker answering probes is noticed as recovered.
func TestMonitorStaleAndRecovered(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(0, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}
	healthy := map[int]bool{0: true, 1: true}
	probe := func(w int) error {
		mu.Lock()
		defer mu.Unlock()
		if !healthy[w] {
			return errors.New("down")
		}
		return nil
	}
	// A long interval keeps the background loop quiet; the test drives the
	// monitor directly for determinism.
	cfg := Config{Heartbeat: time.Hour, Timeout: 10 * time.Second, Now: clock}
	m := newMonitor(2, cfg, probe, nil)
	defer m.Close()

	if got := m.Stale(); len(got) != 0 {
		t.Fatalf("fresh monitor reports stale %v", got)
	}
	advance(11 * time.Second)
	m.Observe(0)
	stale := m.Stale()
	if len(stale) != 1 || stale[0] != 1 {
		t.Fatalf("stale = %v, want [1]", stale)
	}
	m.MarkDown(1)
	if got := m.Stale(); len(got) != 0 {
		t.Fatalf("down worker still evaluated for staleness: %v", got)
	}
	if m.Recovered(1) {
		t.Fatal("recovered before any probe")
	}
	mu.Lock()
	healthy[1] = true
	mu.Unlock()
	m.sweep()
	if !m.Recovered(1) {
		t.Fatal("recovery not noticed after a successful sweep")
	}
	m.MarkLive(1)
	if m.Recovered(1) {
		t.Fatal("recovered flag survived MarkLive")
	}
}

func TestCheckpointerWriteLoadLatest(t *testing.T) {
	dir := t.TempDir()
	ck, err := NewCheckpointer(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Due(1) || !ck.Due(2) || ck.Due(3) || !ck.Due(4) {
		t.Fatal("Due cadence wrong for every=2")
	}
	mkStream := func(vals ...float64) *summary.StreamState {
		st, err := summary.New(0.01, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			st.Push(v)
		}
		return st.State()
	}
	snap := func(round int) *wire.Snapshot {
		return &wire.Snapshot{
			Game: wire.SnapScalar, Seed: 7, Rounds: 10, Batch: 100, Ratio: 0.2,
			Workers: 3, NextRound: round + 1, Epoch: 1, BaselineQ: 0.5,
			Records: make([]wire.SnapRound, round),
			Losses: []wire.SnapLoss{
				{Round: 2, Worker: 1, Lo: 33, Hi: 66, Phase: "generate"},
			},
			Received: mkStream(1, 2, 3),
			Kept:     mkStream(1, 2),
		}
	}
	if _, err := ck.Write(snap(2)); err != nil {
		t.Fatal(err)
	}
	path4, err := ck.Write(snap(4))
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path4) != "checkpoint-000004.tq" {
		t.Fatalf("checkpoint name %s", filepath.Base(path4))
	}
	latest, path, err := LoadLatest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path != path4 || latest.NextRound != 5 {
		t.Fatalf("latest = %s next round %d", path, latest.NextRound)
	}
	if len(latest.Losses) != 1 || latest.Losses[0].Phase != "generate" || latest.Losses[0].Hi != 66 {
		t.Fatalf("losses %+v", latest.Losses)
	}
	// Earlier checkpoints are retained and loadable individually.
	early, err := Load(filepath.Join(dir, "checkpoint-000002.tq"))
	if err != nil {
		t.Fatal(err)
	}
	if early.NextRound != 3 {
		t.Fatalf("early next round %d", early.NextRound)
	}
	if _, _, err := LoadLatest(t.TempDir()); err == nil {
		t.Fatal("empty dir loaded")
	}
	if _, err := NewCheckpointer(dir, 0); err == nil {
		t.Fatal("every=0 accepted")
	}
	if _, err := NewCheckpointer("", 1); err == nil {
		t.Fatal("empty dir accepted")
	}
}

// The background loop itself: a worker that stops answering is reported
// stale after the timeout without any manual sweep, and Close is safe to
// call twice.
func TestMonitorBackgroundLoop(t *testing.T) {
	var mu sync.Mutex
	ok := true
	probe := func(int) error {
		mu.Lock()
		defer mu.Unlock()
		if !ok {
			return errors.New("down")
		}
		return nil
	}
	m := newMonitor(1, Config{Heartbeat: 5 * time.Millisecond, Timeout: 30 * time.Millisecond}, probe, nil)
	mu.Lock()
	ok = false
	mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if s := m.Stale(); len(s) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never went stale under a dead probe")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m.Close()
	m.Close()
}
